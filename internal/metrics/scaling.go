package metrics

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"codedsm/internal/csm"
	"codedsm/internal/field"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
)

// ScalingRow is one point of the Theorem 1 series: at network size N with
// Byzantine fraction µ, CSM simultaneously achieves β = µN, γ = Θ(N), and
// the coding work per node stays polylogarithmic under delegation.
type ScalingRow struct {
	N, K, B int
	// Gamma is the measured storage efficiency (= K).
	Gamma int
	// Beta is the injected-and-survived fault count.
	Beta int
	// OpsPerNodeDecentralized: field ops per node per round when every
	// node encodes and decodes itself (Section 5).
	OpsPerNodeDecentralized float64
	// WorkerOpsFast: the delegated worker's coding ops per round
	// (Section 6.2 fast path: encode commands + decode results + refresh
	// coded states).
	WorkerOpsFast uint64
	// NetworkOpsNaive: total naive coding ops across the network per
	// round (N*K encoding plus a per-node decode) it replaces.
	NetworkOpsNaive uint64
	// OpsPerNodeDelegated: per-node average measured by running the engine
	// in delegated mode (Section 6.2): only the rotating worker and the
	// auditor committee pay coding costs. This is the quantity Theorem 1
	// claims grows polylogarithmically.
	OpsPerNodeDelegated float64
	Correct             bool
}

// ScalingConfig parameterizes the Theorem 1 series.
type ScalingConfig struct {
	// Ns are the measured network sizes; Mu the Byzantine fraction; D the
	// transition degree; Rounds the measured rounds per size.
	Ns     []int
	Mu     float64
	D      int
	Rounds int
	Seed   uint64
}

// ScalingSeries measures the Theorem 1 series.
func ScalingSeries(cfg ScalingConfig) ([]ScalingRow, error) {
	out := make([]ScalingRow, 0, len(cfg.Ns))
	gold := field.NewGoldilocks()
	for _, n := range cfg.Ns {
		b := int(cfg.Mu * float64(n))
		k := lcc.SyncMaxMachines(n, b, cfg.D)
		if k < 1 {
			return nil, fmt.Errorf("metrics: no capacity at N=%d", n)
		}
		byz := map[int]csm.Behavior{}
		for i := 0; len(byz) < b; i++ {
			byz[(i*5+2)%n] = csm.WrongResult
		}
		cluster, err := csm.Open(gold, bankLike(cfg.D),
			csm.WithNodes(n), csm.WithMachines(k), csm.WithFaults(b),
			csm.WithByzantine(byz), csm.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		workload := csm.RandomWorkload[uint64](gold, cfg.Rounds, k, 1, cfg.Seed)
		correct, err := runCorrect(cluster, workload, fmt.Sprintf("scaling N=%d", n))
		if err != nil {
			return nil, err
		}
		// Same cluster, delegated execution phase.
		delegatedCluster, err := csm.Open(gold, bankLike(cfg.D),
			csm.WithNodes(n), csm.WithMachines(k), csm.WithFaults(b),
			csm.WithDelegated(), csm.WithByzantine(byz), csm.WithSeed(cfg.Seed))
		if err != nil {
			return nil, err
		}
		delegatedCorrect, err := runCorrect(delegatedCluster, workload, fmt.Sprintf("scaling delegated N=%d", n))
		if err != nil {
			return nil, err
		}
		correct = correct && delegatedCorrect
		workerFast, naive, err := codingCosts(k, n, b, cfg.D, cfg.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingRow{
			N: n, K: k, B: b, Gamma: k, Beta: b,
			OpsPerNodeDecentralized: float64(cluster.OpCounts().Total()) / float64(n*cfg.Rounds),
			WorkerOpsFast:           workerFast,
			NetworkOpsNaive:         naive,
			OpsPerNodeDelegated:     float64(delegatedCluster.OpCounts().Total()) / float64(n*cfg.Rounds),
			Correct:                 correct,
		})
	}
	return out, nil
}

// codingCosts measures one full round of coding work both ways. Delegated
// (Section 6.2): the worker fast-encodes the commands, decodes the N
// results (with b corruptions), and refreshes the coded states. Distributed
// (Section 5): every node encodes its own command (K multiply-adds each)
// and runs its own decode.
func codingCosts(k, n, b, d int, seed uint64) (fast, naive uint64, err error) {
	counting := field.NewCounting[uint64](field.NewGoldilocks())
	ring := poly.NewRing[uint64](counting)
	code, err := lcc.New(ring, k, n)
	if err != nil {
		return 0, 0, err
	}
	cmds := make([][]uint64, k)
	states := make([][]uint64, k)
	for i := range cmds {
		cmds[i] = []uint64{uint64(i + 1)}
		states[i] = []uint64{uint64(3 * (i + 1))}
	}
	codedStates, err := code.EncodeVectors(states)
	if err != nil {
		return 0, 0, err
	}
	codedCmds, err := code.EncodeVectors(cmds)
	if err != nil {
		return 0, 0, err
	}
	// A degree-d register machine produces the round's results.
	tr, err := sm.NewPolynomialRegister[uint64](counting, d)
	if err != nil {
		return 0, 0, err
	}
	results := make([][]uint64, n)
	for i := range results {
		if results[i], err = tr.ApplyResult(codedStates[i], codedCmds[i]); err != nil {
			return 0, 0, err
		}
	}
	for i := 0; i < b; i++ {
		results[(i*3+1)%n][0]++
	}

	// Delegated worker: fast encode + one decode + fast state refresh.
	counting.Reset()
	if _, err := code.EncodeVectorsFast(cmds); err != nil {
		return 0, 0, err
	}
	dec, err := code.DecodeOutputs(results, d)
	if err != nil {
		return 0, 0, err
	}
	nextStates := make([][]uint64, k)
	for i := range nextStates {
		nextStates[i] = dec.Outputs[i][:1]
	}
	if _, err := code.EncodeVectorsFast(nextStates); err != nil {
		return 0, 0, err
	}
	fast = counting.Counts().Total()

	// Distributed: N per-node encodings plus N per-node decodes.
	counting.Reset()
	if _, err := code.EncodeVectors(cmds); err != nil {
		return 0, 0, err
	}
	if _, err := code.DecodeOutputs(results, d); err != nil {
		return 0, 0, err
	}
	perNodeDecode := counting.Counts().Total()
	naive = perNodeDecode * uint64(n)
	return fast, naive, nil
}

// RenderScaling renders the series.
func RenderScaling(rows []ScalingRow) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "N\tK=γ\tβ=b\tOPS/NODE decentralized\tOPS/NODE delegated\tWORKER OPS (fast)\tNETWORK OPS (naive)\tCORRECT")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.0f\t%.0f\t%d\t%d\t%v\n",
			r.N, r.K, r.B, r.OpsPerNodeDecentralized, r.OpsPerNodeDelegated, r.WorkerOpsFast, r.NetworkOpsNaive, r.Correct)
	}
	w.Flush()
	return sb.String()
}
