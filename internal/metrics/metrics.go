// Package metrics implements the experiment harness that regenerates the
// paper's quantitative content: Table 1 (security / storage efficiency /
// throughput of full replication, partial replication, the
// information-theoretic limits, and CSM), Table 2 (the fault-tolerance
// thresholds for consensus, decoding, and output delivery), and the
// Theorem 1 scaling series. Throughput is measured exactly as Section 2.2
// defines it: commands per field operation per node, with consensus
// excluded and operations counted by the field.Counting decorator.
package metrics

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"codedsm/internal/csm"
	"codedsm/internal/field"
	"codedsm/internal/lcc"
	"codedsm/internal/replication"
	"codedsm/internal/sm"
)

// Table1Row is one scheme's measured row of Table 1.
type Table1Row struct {
	Scheme     string
	N, K, B    int
	Security   int     // β: max tolerated faults
	Storage    float64 // γ: states supported per single-state storage
	OpsPerNode float64 // measured field ops per node per round
	Throughput float64 // λ = K / OpsPerNode
	Correct    bool
}

// Table1Config parameterizes the Table 1 experiment.
type Table1Config struct {
	// N is the network size; µ the Byzantine fraction (the paper uses 1/3
	// as the concrete example); D the transition degree; Rounds the number
	// of measured rounds.
	N      int
	Mu     float64
	D      int
	Rounds int
	Seed   uint64
}

// runRounds drives a workload through a baseline's ExecuteRound and
// reports whether every round stayed correct.
func runRounds(workload [][][]uint64,
	exec func([][]uint64) (*replication.RoundResult[uint64], error)) (bool, error) {
	correct := true
	for _, cmds := range workload {
		res, err := exec(cmds)
		if err != nil {
			return false, err
		}
		correct = correct && res.Correct
	}
	return correct, nil
}

// bankLike returns a degree-d transition factory.
func bankLike(d int) csm.TransitionFactory[uint64] {
	return func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
		return sm.NewPolynomialRegister(f, d)
	}
}

func replFactory(d int) replication.TransitionFactory[uint64] {
	return func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
		return sm.NewPolynomialRegister(f, d)
	}
}

// Table1 measures all three schemes plus the information-theoretic limit
// row at one network size.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	if cfg.Rounds < 1 {
		cfg.Rounds = 3
	}
	gold := field.NewGoldilocks()
	b := int(cfg.Mu * float64(cfg.N))
	k := lcc.SyncMaxMachines(cfg.N, b, cfg.D)
	if k < 1 {
		return nil, fmt.Errorf("metrics: no capacity at N=%d mu=%.2f d=%d", cfg.N, cfg.Mu, cfg.D)
	}
	if cfg.N%k != 0 {
		// Partial replication needs q = N/K integral; shrink K to the
		// nearest divisor for its row (CSM keeps the full K).
		return nil, fmt.Errorf("metrics: N=%d not divisible by K=%d; pick N as a multiple (mu=1/3, d=1 gives K=N/3)", cfg.N, k)
	}
	rows := make([]Table1Row, 0, 4)
	workload := csm.RandomWorkload[uint64](gold, cfg.Rounds, k, 1, cfg.Seed)

	// Full replication.
	full, err := replication.OpenFull(gold, replFactory(cfg.D),
		replication.WithNodes(cfg.N), replication.WithMachines(k),
		replication.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	correct, err := runRounds(workload, full.ExecuteRound)
	if err != nil {
		return nil, err
	}
	rows = append(rows, makeRow("full-replication", cfg.N, k, b, full.Security(), 1,
		full.OpCounts(), cfg.Rounds, correct))

	// Partial replication.
	part, err := replication.OpenPartial(gold, replFactory(cfg.D),
		replication.WithNodes(cfg.N), replication.WithMachines(k),
		replication.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	correct, err = runRounds(workload, part.ExecuteRound)
	if err != nil {
		return nil, err
	}
	rows = append(rows, makeRow("partial-replication", cfg.N, k, b, part.Security(),
		float64(k), part.OpCounts(), cfg.Rounds, correct))

	// Information-theoretic limit (analytic row, Section 3).
	rows = append(rows, Table1Row{
		Scheme: "info-theoretic-limit", N: cfg.N, K: k, B: b,
		Security: cfg.N / 2, Storage: float64(cfg.N),
		OpsPerNode: 0, Throughput: float64(cfg.N), Correct: true,
	})

	// CSM with b = µN Byzantine nodes actually injected.
	byz := make(map[int]csm.Behavior, b)
	for i := 0; i < b; i++ {
		byz[(i*7+1)%cfg.N] = csm.WrongResult
	}
	for len(byz) < b { // collision fill
		byz[len(byz)*11%cfg.N] = csm.WrongResult
	}
	cluster, err := csm.Open(gold, bankLike(cfg.D),
		csm.WithNodes(cfg.N), csm.WithMachines(k), csm.WithFaults(b),
		csm.WithByzantine(byz), csm.WithSeed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	correct, err = runCorrect(cluster, workload, "table1 csm")
	if err != nil {
		return nil, err
	}
	rows = append(rows, makeRow("csm", cfg.N, k, b, b, float64(k),
		cluster.OpCounts(), cfg.Rounds, correct))
	return rows, nil
}

// runCorrect folds per-round correctness over a workload without dropping
// any completed round's report on a mid-workload failure: Run returns the
// completed prefix with the error, and the returned error names the
// failed round and the number of rounds that did complete.
func runCorrect(cluster *csm.Cluster[uint64], workload [][][]uint64, what string) (bool, error) {
	results, err := cluster.Run(workload)
	correct := true
	for _, res := range results {
		correct = correct && res.Correct
	}
	if err != nil {
		return correct, fmt.Errorf("metrics: %s: %d/%d rounds completed: %w", what, len(results), len(workload), err)
	}
	return correct, nil
}

func makeRow(scheme string, n, k, b, security int, storage float64,
	ops field.OpCounts, rounds int, correct bool) Table1Row {
	perNode := float64(ops.Total()) / float64(n*rounds)
	row := Table1Row{
		Scheme: scheme, N: n, K: k, B: b,
		Security: security, Storage: storage,
		OpsPerNode: perNode, Correct: correct,
	}
	if perNode > 0 {
		row.Throughput = float64(k) / perNode
	}
	return row
}

// RenderTable1 renders rows as an aligned text table.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SCHEME\tN\tK\tb\tSECURITY β\tSTORAGE γ\tOPS/NODE/ROUND\tTHROUGHPUT λ\tCORRECT")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.0f\t%.0f\t%.4f\t%v\n",
			r.Scheme, r.N, r.K, r.B, r.Security, r.Storage, r.OpsPerNode, r.Throughput, r.Correct)
	}
	w.Flush()
	return sb.String()
}
