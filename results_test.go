package codedsm

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"codedsm/internal/delegate"
	"codedsm/internal/field"
	"codedsm/internal/intermix"
	"codedsm/internal/lcc"
	"codedsm/internal/metrics"
	"codedsm/internal/poly"
	"codedsm/internal/replication"
	"codedsm/internal/sm"
)

var update = flag.Bool("update", false, "rewrite RESULTS.md from the measured sections")

// paperSeed seeds every measured run in RESULTS.md.
const paperSeed = 2019

// paperSection is one claim of the paper and what this repository
// measures of it.
type paperSection struct {
	title string // the heading, with the paper's section
	claim string // the claim, in one sentence
	// measure writes the measured table to w and returns the verdict:
	// "reproduced", "reproduced with a deviation" or "not reproduced",
	// then ". " and why. It returns an error when the predicate behind the
	// verdict fails, so an update never writes a verdict the numbers do
	// not support.
	measure func(w io.Writer) (verdict string, err error)
}

var paperSections = []paperSection{
	{
		"Table 1: scheme comparison (§3)",
		"CSM reaches security β = Θ(N) and storage efficiency γ = Θ(N) at once, where full replication stores γ = 1 and partial replication tolerates only β = Θ(N/K), and its throughput λ also grows with N.",
		measureTable1,
	},
	{
		"Table 2: fault thresholds (§4)",
		"Coded execution decodes correctly up to b = ⌊(N − d(K−1) − 1)/2⌋ Byzantine nodes in synchrony and fewer under partial synchrony; output delivery and input consensus have their own bounds.",
		measureTable2,
	},
	{
		"Theorem 1: scaling series",
		"With K = Θ(N) machines and b = µN faults, CSM stays correct while γ and β grow linearly in N, and once the coding is delegated (§6.2) each node's work per round grows only polylogarithmically in N.",
		measureScaling,
	},
	{
		"Figure 2: K=2 machines, minimal cluster",
		"Two machines with d = 1 run on a small coded cluster with one malicious node, and every output is correct.",
		measureFig2,
	},
	{
		"Figure 3: coded execution trace (§5)",
		"Nodes store Lagrange-coded states, apply the transition to coded data, and Reed–Solomon decoding of their results recovers every machine's output despite an erroneous result, naming its sender.",
		measureFig3,
	},
	{
		"Figure 4: delegated coding round (§6.2)",
		"One worker encodes, decodes with a τ-set proof and refreshes the coded states; auditors accept an honest proof and reject a corrupt one.",
		measureFig4,
	},
	{
		"Figure 5: INTERMIX fraud localization (§6.1, Algorithm 1)",
		"An auditor that finds a wrong row of AX localizes the lie by interactive bisection in log₂ K query pairs, and any node confirms the fraud with an O(1) check.",
		measureFig5,
	},
	{
		"§6.1: committee soundness",
		"A self-elected committee of expected size J = ⌈log ε / log µ⌉ contains an honest auditor with probability at least 1 − ε.",
		measureCommittee,
	},
	{
		"§7: random allocation vs adversaries",
		"Allocating nodes to machines at random resists a static adversary but not a dynamic one, which captures a group with a budget of a few nodes; CSM tolerates Θ(N) dynamic corruptions.",
		measureRandomAlloc,
	},
	{
		"§6.2: coding cost (naive vs fast)",
		"The delegated worker encodes with fast interpolation and evaluation in O(N log² N) operations, against O(NK) for the inner-product encoding every node runs in §5.",
		measureCoding,
	},
}

const resultsHeader = `# RESULTS — the paper's claims, measured

Regenerated by ` + "`TestPaperArtifacts`" + ` (results_test.go); do not edit by hand.
` + "`go test -run '^TestPaperArtifacts$' .`" + ` compares this file byte for byte,
and ` + "`-update`" + ` rewrites it. Every value is an exact count, a seeded
outcome or a ratio of counts (field operations counted by
` + "`field.Counting`" + `), so the file is the same on every host and at any
GOMAXPROCS. The test asserts the predicate behind each verdict, so a
claim that stops holding fails the test instead of being rewritten.

Scope:

- §5.2 names Berlekamp–Welch for the decode and compares no decoders.
  This repository decodes with Gao's decoder alone (` + "`BenchmarkRSDecoderGao`" + `
  in bench_test.go times it) and checks it against every word of a small
  field (` + "`TestDecodeExhaustive`" + `), so no section here compares decoders.
- Wall-clock is not here, because it differs per host. bench_test.go
  has a benchmark for each section, and ` + "`cmd/csmload`" + ` measures the
  deployed paths.
`

// TestPaperArtifacts measures every section of RESULTS.md and compares
// the file byte for byte; -update rewrites it.
func TestPaperArtifacts(t *testing.T) {
	var doc, body strings.Builder
	doc.WriteString(resultsHeader)
	doc.WriteString("\n| Section | Verdict |\n|---|---|\n")
	for _, s := range paperSections {
		var table strings.Builder
		verdict, err := s.measure(&table)
		if err != nil {
			t.Errorf("%s: %v", s.title, err)
			continue
		}
		kind, why, _ := strings.Cut(verdict, ". ")
		if !slices.Contains([]string{"reproduced", "reproduced with a deviation", "not reproduced"}, kind) || why == "" {
			t.Errorf("%s: verdict %q is not one of the three, with its reason", s.title, verdict)
		}
		fmt.Fprintf(&doc, "| %s | %s |\n", s.title, kind)
		fmt.Fprintf(&body, "\n## %s\n\n**Claim.** %s\n\n```\n%s```\n\n**Verdict: %s.** %s\n",
			s.title, s.claim, table.String(), kind, why)
	}
	if t.Failed() {
		t.FailNow()
	}
	doc.WriteString(body.String())
	got := doc.String()
	if *update {
		if err := os.WriteFile("RESULTS.md", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("RESULTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
			i++
		}
		t.Fatalf("RESULTS.md differs from the measurement at line %d:\nfile:     %q\nmeasured: %q\n(go test -run '^TestPaperArtifacts$' -update . rewrites it)",
			i+1, wl[min(i, len(wl)-1)], gl[min(i, len(gl)-1)])
	}
}

func measureTable1(w io.Writer) (string, error) {
	rows, err := metrics.Table1(metrics.Table1Config{N: 24, Mu: 1.0 / 3.0, D: 1, Rounds: 3, Seed: paperSeed})
	if err != nil {
		return "", err
	}
	fmt.Fprint(w, metrics.RenderTable1(rows))
	fmt.Fprintln(w, "\n(µ = 1/3, d = 1; CSM row measured with b = µN wrong-result nodes injected.)")
	by := map[string]metrics.Table1Row{}
	for _, r := range rows {
		if !r.Correct {
			return "", fmt.Errorf("%s: a round was incorrect", r.Scheme)
		}
		by[r.Scheme] = r
	}
	full, part, coded := by["full-replication"], by["partial-replication"], by["csm"]
	switch {
	case coded.Security != coded.B || coded.Storage != float64(coded.K):
		return "", fmt.Errorf("csm row: β=%d γ=%.0f, want b=%d and K=%d", coded.Security, coded.Storage, coded.B, coded.K)
	case full.Storage != 1 || part.Security >= coded.Security:
		return "", fmt.Errorf("baselines: γ_full=%.0f β_partial=%d", full.Storage, part.Security)
	case coded.Throughput >= part.Throughput:
		return "", fmt.Errorf("csm λ=%.4f no longer below partial replication's %.4f: revise the deviation", coded.Throughput, part.Throughput)
	}
	return fmt.Sprintf("reproduced with a deviation. β and γ hold: CSM survives all b = %d injected liars with γ = K = %d, where full replication stores γ = 1 and partial replication tolerates β = %d. λ does not: the CSM row runs the decentralized decode, in which every node decodes all N results, so its λ = %.4f is below both replication rows. The paper's λ for CSM assumes §6.2's delegated coding, which the Theorem 1 section measures.",
		coded.B, coded.K, part.Security, coded.Throughput), nil
}

func measureTable2(w io.Writer) (string, error) {
	for _, tc := range []struct{ n, k, d int }{{20, 3, 2}, {31, 4, 3}, {24, 8, 1}} {
		rows, err := metrics.Table2(tc.n, tc.k, tc.d, paperSeed)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "N=%d K=%d d=%d\n%s\n", tc.n, tc.k, tc.d, metrics.RenderTable2(rows))
		for _, r := range rows {
			if !r.Match {
				return "", fmt.Errorf("N=%d K=%d d=%d %s %s: formula %d, empirical %d",
					tc.n, tc.k, tc.d, r.Setting, r.Aspect, r.FormulaMaxB, r.EmpiricalMax)
			}
		}
	}
	return "reproduced. At every shape each formula bound equals the largest b the sweep found safe.", nil
}

func measureScaling(w io.Writer) (string, error) {
	rows, err := metrics.ScalingSeries(metrics.ScalingConfig{
		Ns: []int{12, 24, 48, 96}, Mu: 1.0 / 3.0, D: 1, Rounds: 3, Seed: paperSeed,
	})
	if err != nil {
		return "", err
	}
	fmt.Fprint(w, metrics.RenderScaling(rows))
	fmt.Fprintln(w, "\n(γ = K and β = b both grow linearly in N while every round stays correct — Theorem 1.)")
	var growth []string
	for i, r := range rows {
		if !r.Correct || r.Gamma != r.K || r.Beta != r.B {
			return "", fmt.Errorf("N=%d: correct=%v γ=%d β=%d", r.N, r.Correct, r.Gamma, r.Beta)
		}
		if r.OpsPerNodeDelegated >= r.OpsPerNodeDecentralized || r.WorkerOpsFast >= r.NetworkOpsNaive {
			return "", fmt.Errorf("N=%d: delegation no longer cheaper", r.N)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if r.N != 2*prev.N || r.K != 2*prev.K || r.B != 2*prev.B {
			return "", fmt.Errorf("N=%d: γ and β do not double with N", r.N)
		}
		g := r.OpsPerNodeDelegated / prev.OpsPerNodeDelegated
		if g >= 2 {
			return "", fmt.Errorf("N=%d: delegated per-node ops grew ×%.2f, not sublinearly", r.N, g)
		}
		growth = append(growth, fmt.Sprintf("×%.2f", g))
	}
	return fmt.Sprintf("reproduced with a deviation. γ and β double with N and every round is correct. Delegated per-node work stays below decentralized work at every N and grows sublinearly (%s per doubling), but four sizes up to N = 96 cannot tell polylogarithmic growth from a power of N; ROADMAP item 8 fits the exponent up to N = 512.",
		strings.Join(growth, ", ")), nil
}

func measureFig2(w io.Writer) (string, error) {
	fmt.Fprintln(w, "K=2 machines, d=1; trying N=3 with b=1 (the figure's setup):")
	_, err := Open(gold, NewBank[uint64],
		WithNodes(3), WithMachines(2), WithFaults(1), WithSeed(paperSeed))
	if err == nil {
		return "", errors.New("N=3 with b=1 accepted")
	}
	fmt.Fprintf(w, "  rejected as expected: %v\n", err)
	fmt.Fprintln(w, "minimal safe cluster N=4 (2b+1 = 3 <= N - d(K-1) = 3), node 2 malicious:")
	cluster, err := Open(gold, NewBank[uint64],
		WithNodes(4), WithMachines(2), WithFaults(1),
		WithByzantineNode(2, WrongResult), WithSeed(paperSeed))
	if err != nil {
		return "", err
	}
	for r, cmds := range RandomWorkload[uint64](gold, 3, 2, 1, paperSeed) {
		res, err := cluster.ExecuteRound(cmds)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "  round %d: correct=%v faulty-detected=%v\n", r, res.Correct, res.FaultyDetected)
		if !res.Correct || !slices.Equal(res.FaultyDetected, []int{2}) {
			return "", fmt.Errorf("round %d: correct=%v detected %v", r, res.Correct, res.FaultyDetected)
		}
	}
	return "reproduced with a deviation. At the figure's N = 3, one error is beyond the code's radius: it needs 2b + 1 ≤ N − d(K−1), so Open refuses the cluster. At N = 4, the smallest size that allows it, every round is correct and the malicious node is named each round.", nil
}

func measureFig3(w io.Writer) (string, error) {
	ring := poly.NewRing[uint64](gold)
	const k, n = 2, 5
	code, err := lcc.New(ring, k, n)
	if err != nil {
		return "", err
	}
	states := [][]uint64{{10}, {20}}
	fmt.Fprintf(w, "uncoded states: S1=%d S2=%d at omegas %v\n", states[0][0], states[1][0], code.Omegas())
	coded, err := code.EncodeVectors(states)
	if err != nil {
		return "", err
	}
	for i := range coded {
		fmt.Fprintf(w, "  node %d stores S~ = u(alpha=%d) = %d\n", i+1, code.Alphas()[i], coded[i][0])
	}
	// Identity transition (d=1): g_i = S~_i; node 2's result is corrupted.
	results := make([][]uint64, n)
	for i := range results {
		results[i] = slices.Clone(coded[i])
	}
	results[1][0] += 999
	fmt.Fprintf(w, "node 2 broadcasts erroneous g2 = %d\n", results[1][0])
	dec, err := code.DecodeOutputs(results, 1)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "RS decoding recovers h, evaluates at omegas: S1=%d S2=%d; faulty nodes: %v\n",
		dec.Outputs[0][0], dec.Outputs[1][0], dec.FaultyNodes)
	if dec.Outputs[0][0] != 10 || dec.Outputs[1][0] != 20 || !slices.Equal(dec.FaultyNodes, []int{1}) {
		return "", fmt.Errorf("decoded %v, faulty %v", dec.Outputs, dec.FaultyNodes)
	}
	return "reproduced. Both states come back exactly, and the decoder names node 2 (index 1), the only sender of a wrong result.", nil
}

func measureFig4(w io.Writer) (string, error) {
	ring := poly.NewRing[uint64](gold)
	const k, n = 3, 16
	code, err := lcc.New(ring, k, n)
	if err != nil {
		return "", err
	}
	tr, err := sm.NewQuadraticTally[uint64](gold)
	if err != nil {
		return "", err
	}
	d := delegate.New(ring, code)
	codedStates, err := code.EncodeVectors([][]uint64{{1}, {2}, {3}})
	if err != nil {
		return "", err
	}
	codedCmds, err := d.EncodeCommands([][]uint64{{5}, {6}, {7}})
	if err != nil {
		return "", err
	}
	results := make([][]uint64, n)
	for i := range results {
		if results[i], err = tr.ApplyResult(codedStates[i], codedCmds[i]); err != nil {
			return "", err
		}
	}
	var verdicts []error
	for _, worker := range []string{"honest", "corrupt-decoding"} {
		dec, proof, err := d.DecodeWithProof(results, tr.Degree())
		if err != nil {
			return "", err
		}
		if worker == "corrupt-decoding" { // wrong polynomial coefficients
			proof.Coeffs[0] = ring.Add(proof.Coeffs[0], poly.Poly[uint64]{gold.One()})
		}
		verr := d.VerifyDecodeProof(results, tr.Degree(), proof, dec.Outputs)
		verdict := "ACCEPTED"
		if verr != nil {
			verdict = "REJECTED (" + verr.Error() + ")"
		}
		fmt.Fprintf(w, "worker=%s: proof verification: %s\n", worker, verdict)
		verdicts = append(verdicts, verr)
	}
	if verdicts[0] != nil || !errors.Is(verdicts[1], delegate.ErrProofInvalid) {
		return "", fmt.Errorf("honest: %v, corrupt: %v", verdicts[0], verdicts[1])
	}
	return "reproduced. The honest worker's proof is accepted; the corrupted coefficients fail equation (9) at the first τ node.", nil
}

func measureFig5(w io.Writer) (string, error) {
	const n, k = 8, 16
	a := make([][]uint64, n)
	for i := range a {
		a[i] = make([]uint64, k)
		for j := range a[i] {
			a[i][j] = uint64(i*k + j + 1)
		}
	}
	x := make([]uint64, k)
	for j := range x {
		x[j] = uint64(j + 3)
	}
	worker, err := intermix.NewWorker[uint64](gold, a, x, intermix.ConsistentLiar, 5, 11)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "worker publishes Y^ (row 5 corrupted, lie hidden at column 11)\n")
	alert, err := intermix.Audit[uint64](gold, a, x, worker.Output(), worker.Answer)
	if err != nil {
		return "", err
	}
	if alert == nil {
		return "", errors.New("fraud not detected")
	}
	fmt.Fprintf(w, "auditor recomputes AX, finds row %d wrong; interactive bisection:\n", alert.Row)
	for lvl, st := range alert.Steps {
		fmt.Fprintf(w, "  level %d: segment [%d,%d), worker claims left=%d right=%d (parent claim %d)\n",
			lvl, st.Lo, st.Hi, st.Left, st.Right, st.Claimed)
	}
	fmt.Fprintf(w, "verdict: %v at column %d after %d query pairs (zeta path %v)\n",
		alert.Kind, alert.LeafCol, alert.Queries, alert.Path)
	ok := intermix.VerifyAlert[uint64](gold, a, x, alert)
	fmt.Fprintf(w, "commoner O(1) check: fraud confirmed = %v\n", ok)
	if alert.Row != 5 || alert.LeafCol != 11 || alert.Queries != 4 || !ok {
		return "", fmt.Errorf("row %d column %d after %d queries, confirmed=%v", alert.Row, alert.LeafCol, alert.Queries, ok)
	}
	return "reproduced. The bisection pins the lie at row 5, column 11 after log₂ 16 = 4 query pairs, and the O(1) check confirms it.", nil
}

// measureCommittee draws the delegated round's auditor committee at N=24,
// b=8 over 20 000 beacons, as runExecutionDelegated draws it, and counts
// the committees with no honest member.
func measureCommittee(w io.Writer) (string, error) {
	const n, b, beacons, epsilon = 24, 8, 20000, 0.01
	j, err := intermix.CommitteeSize(epsilon, float64(b)/n)
	if err != nil {
		return "", err
	}
	liar := map[int]bool{}
	for i := 0; i < b; i++ {
		liar[(5*i)%n] = true
	}
	noHonest := 0
	for beacon := uint64(0); beacon < beacons; beacon++ {
		committee, _, err := intermix.ElectNonEmpty(beacon, n, j)
		if err != nil {
			return "", err
		}
		if !slices.ContainsFunc(committee, func(i int) bool { return !liar[i] }) {
			noHonest++
		}
	}
	rate := float64(noHonest) / beacons
	fmt.Fprintf(w, "N=%d b=%d (liars at 5i mod N) ε=%.2f J=%d beacons=%d\n", n, b, epsilon, j, beacons)
	fmt.Fprintf(w, "committees with no honest member: %d (%.2f%%)\n", noHonest, 100*rate)
	if rate <= epsilon {
		return "", fmt.Errorf("no-honest rate %.4f is within ε: revise the verdict", rate)
	}
	mu := float64(b) / n
	return fmt.Sprintf("not reproduced. The failure rate is %.2f%%, above ε = %.0f%%. J = ⌈log ε / log µ⌉ = %d is sized for J draws that each find a liar with probability µ, which fail together with probability µ^J = %.2f%%. Self-election draws no fixed number: each node joins with probability J/N, so no honest node joins with probability (1 − J/N)^{(1−µ)N} = %.2f%% (an empty draw is redrawn, which trims that slightly). ROADMAP item 19 sizes J for self-election.",
		100*rate, 100*epsilon, j, 100*math.Pow(mu, float64(j)), 100*math.Pow(1-float64(j)/n, (1-mu)*n)), nil
}

func measureRandomAlloc(w io.Writer) (string, error) {
	const n, k, budget = 60, 15, 3 // q = 4, capture needs 3
	var captured []float64
	for _, kind := range []replication.AdversaryKind{replication.StaticAdversary, replication.DynamicAdversary} {
		frac, err := replication.RandomAllocationExperiment{N: n, K: k, Budget: budget, Kind: kind, Seed: paperSeed}.Run(500)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, "random allocation, %7v adversary, budget %d of N=%d: group captured in %.1f%% of trials\n",
			kind, budget, n, 100*frac)
		captured = append(captured, frac)
	}
	tolerated := lcc.SyncMaxFaults(n, k, 1)
	fmt.Fprintf(w, "CSM with the same N=%d, K=%d tolerates %d dynamic corruptions (Table 2 bound)\n", n, k, tolerated)
	if captured[0] >= captured[1] || captured[1] != 1 || tolerated <= budget {
		return "", fmt.Errorf("static %.3f dynamic %.3f, CSM tolerates %d", captured[0], captured[1], tolerated)
	}
	return fmt.Sprintf("reproduced. A dynamic adversary with %d nodes captures a group in every trial, against %.1f%% for a static one, while CSM at the same size tolerates %d.",
		budget, 100*captured[0], tolerated), nil
}

func measureCoding(w io.Writer) (string, error) {
	fmt.Fprintln(w, "per-component command encoding, K = N/3 (op counts via the counting field):")
	fmt.Fprintln(w, "  N      naive C*X (total)   fast interp+eval (worker)")
	var ratios []float64
	for _, n := range []int{64, 128, 256, 512, 1024} {
		k := n / 3
		counting := field.NewCounting[uint64](gold)
		code, err := lcc.New(poly.NewRing[uint64](counting), k, n)
		if err != nil {
			return "", err
		}
		cmds := make([][]uint64, k)
		for i := range cmds {
			cmds[i] = []uint64{uint64(i+1) + paperSeed%97}
		}
		counting.Reset()
		if _, err := code.EncodeVectors(cmds); err != nil {
			return "", err
		}
		naive := counting.Counts().Total()
		counting.Reset()
		if _, err := code.EncodeVectorsFast(cmds); err != nil {
			return "", err
		}
		fast := counting.Counts().Total()
		fmt.Fprintf(w, "  %-6d %-19d %d\n", n, naive, fast)
		ratios = append(ratios, float64(fast)/float64(naive))
	}
	fmt.Fprintln(w, "naive grows quadratically (O(N*K)); fast grows quasilinearly (O(N log^2 N)).")
	first, last := ratios[0], ratios[len(ratios)-1]
	if last >= first || slices.Min(ratios) <= 1 {
		return "", fmt.Errorf("fast/naive ratios %.3f: revise the verdict", ratios)
	}
	return fmt.Sprintf("reproduced with a deviation. The fast/naive ratio falls from %.2f at N = 64 to %.2f at N = 1024, so the fast path grows more slowly, but not at every step (%.2f at N = 512), and it still costs more than the naive encoding at every measured N: the crossover lies beyond N = 1024.",
		first, last, ratios[3]), nil
}
