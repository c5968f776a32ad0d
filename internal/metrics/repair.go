package metrics

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"text/tabwriter"

	"codedsm/internal/csm"
	"codedsm/internal/field"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
)

// RepairRow is one measured point of the repair-cost experiment
// (Section 7, Remark 5): what re-provisioning one crashed node costs in
// field operations, against two baselines — the per-node cost of an
// ordinary execution round (repair should be of the same order, so churn
// is cheap), and the naive replacement cost of re-downloading and
// re-encoding all K machine states (what random-allocation schemes pay,
// which is why they cannot rotate groups frequently).
type RepairRow struct {
	N, K, B int
	// RepairOps: field operations of one lcc.RepairShare reconstruction —
	// interpolate the encoding polynomial from surviving shares, evaluate
	// it at the replacement node's point.
	RepairOps uint64
	// RoundOpsPerNode: steady-state execution ops per node per round, for
	// scale.
	RoundOpsPerNode float64
	// FullDecodeOps: the cost of the indirect route RepairShare replaces —
	// decode the surviving shares all the way to the K machine states
	// (lcc.DecodeOutputsSubset) and re-encode coordinate i — measured over
	// the same share matrix with the same number of corrupted rows.
	FullDecodeOps uint64
	// Correct reports that the cluster stayed oracle-correct through the
	// crash, the repair, and the rejoined node's subsequent rounds.
	Correct bool
}

// RepairCost measures the repair experiment for each network size: run a
// cluster with µN Byzantine nodes for rounds/2 rounds, crash one honest
// node, run to rounds, rejoin it through a coded-state repair, and charge
// the reconstruction. Byzantine nodes contribute garbage shares to the
// repair, which the decoder corrects like any other error.
func RepairCost(ns []int, mu float64, d, rounds int, seed uint64) ([]RepairRow, error) {
	out := make([]RepairRow, 0, len(ns))
	gold := field.NewGoldilocks()
	for _, n := range ns {
		b := int(mu * float64(n))
		k := lcc.SyncMaxMachines(n, b, d)
		if k < 1 {
			return nil, fmt.Errorf("metrics: no capacity at N=%d mu=%.2f d=%d", n, mu, d)
		}
		// Inject b-1 liars: b errors would consume the whole 2b parity
		// budget, leaving no symbol for the crash erasure under test.
		byz := map[int]csm.Behavior{}
		for i := 0; i < b-1; i++ {
			byz[(i*3+1)%n] = csm.WrongResult
		}
		// The crash target must be honest and off the Byzantine stride.
		target := 0
		for byz[target] != csm.Honest {
			target++
		}
		half := max(rounds/2, 1)
		cluster, err := csm.Open(gold,
			func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
				return sm.NewPolynomialRegister(f, d)
			},
			csm.WithNodes(n), csm.WithMachines(k), csm.WithFaults(b),
			csm.WithByzantine(byz), csm.WithSeed(seed),
			csm.WithChurn(
				csm.ChurnEvent{Round: half, Node: target, Op: csm.ChurnCrash},
				csm.ChurnEvent{Round: 2 * half, Node: target, Op: csm.ChurnRejoin},
			))
		if err != nil {
			return nil, err
		}
		wl := csm.RandomWorkload[uint64](gold, 2*half+1, k, cluster.Transition().CmdLen(), seed)
		correct, err := runCorrect(cluster, wl, fmt.Sprintf("repair run N=%d", n))
		if err != nil {
			return nil, err
		}
		stats := cluster.RepairStats()
		if stats.Repairs != 1 {
			return nil, fmt.Errorf("metrics: N=%d: %d repairs, want 1", n, stats.Repairs)
		}
		total := cluster.OpCounts().Total()
		fullOps, err := fullDecodeRepairOps(cluster, target, len(byz), seed)
		if err != nil {
			return nil, err
		}
		out = append(out, RepairRow{
			N: n, K: k, B: b,
			RepairOps:       stats.Ops.Total(),
			RoundOpsPerNode: float64(total-stats.Ops.Total()) / float64(n*len(wl)),
			FullDecodeOps:   fullOps,
			Correct:         correct,
		})
	}
	return out, nil
}

// fullDecodeRepairOps measures the indirect repair route on the cluster's
// current state: a fresh counting field re-encodes the oracle states into
// the N shares, corrupts `garbage` contributor rows (as many as the
// engine's repair faced), then pays for DecodeOutputsSubset to the K
// machine states plus the per-coordinate re-encode at the target.
func fullDecodeRepairOps(cluster *csm.Cluster[uint64], target, garbage int, seed uint64) (uint64, error) {
	gold := field.NewGoldilocks()
	counting := field.NewCounting[uint64](gold)
	ring := poly.NewRing[uint64](counting)
	code, err := lcc.NewWithPoints(ring, cluster.Code().Omegas(), cluster.Code().Alphas())
	if err != nil {
		return 0, err
	}
	states := cluster.OracleStates()
	enc, err := code.EncodeVectors(states)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x4e9a12))
	indices := make([]int, 0, code.N()-1)
	shares := make([][]uint64, 0, code.N()-1)
	for j := 0; j < code.N(); j++ {
		if j == target {
			continue
		}
		row := enc[j]
		if garbage > 0 {
			row = field.RandVec[uint64](gold, rng, len(row))
			garbage--
		}
		indices = append(indices, j)
		shares = append(shares, row)
	}
	counting.Reset()
	dec, err := code.DecodeOutputsSubset(indices, shares, 1)
	if err != nil {
		return 0, err
	}
	vals := make([]uint64, code.K())
	for comp := range states[0] {
		for k := range vals {
			vals[k] = dec.Outputs[k][comp]
		}
		if _, err := code.EncodeAt(vals, target); err != nil {
			return 0, err
		}
	}
	return counting.Counts().Total(), nil
}

// RenderRepair renders the repair-cost series.
func RenderRepair(rows []RepairRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "N\tK\tb\tREPAIR OPS\tROUND OPS/NODE\tFULL-DECODE OPS\tCORRECT")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%d\t%v\n",
			r.N, r.K, r.B, r.RepairOps, r.RoundOpsPerNode, r.FullDecodeOps, r.Correct)
	}
	w.Flush()
	return sb.String()
}
