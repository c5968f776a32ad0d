package intermix

import (
	"math"
	"math/rand/v2"
	"testing"

	"codedsm/internal/field"
)

var gold = field.NewGoldilocks()

func randomInstance(rng *rand.Rand, n, k int) ([][]uint64, []uint64) {
	a := make([][]uint64, n)
	for i := range a {
		a[i] = field.RandVec[uint64](gold, rng, k)
	}
	return a, field.RandVec[uint64](gold, rng, k)
}

func TestHonestWorkerPassesAudit(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a, x := randomInstance(rng, 8, 16)
	w, err := NewWorker[uint64](gold, a, x, HonestWorker, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	alert, err := Audit[uint64](gold, a, x, w.Output(), w.Answer)
	if err != nil {
		t.Fatal(err)
	}
	if alert != nil {
		t.Fatalf("honest worker convicted: %+v", alert)
	}
}

func TestNaiveLiarCaughtAtFirstLevel(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a, x := randomInstance(rng, 8, 16)
	w, err := NewWorker[uint64](gold, a, x, NaiveLiar, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	alert, err := Audit[uint64](gold, a, x, w.Output(), w.Answer)
	if err != nil {
		t.Fatal(err)
	}
	if alert == nil || alert.Kind != SumMismatch {
		t.Fatalf("alert = %+v, want SumMismatch", alert)
	}
	if alert.Row != 3 {
		t.Errorf("fraud located at row %d, want 3", alert.Row)
	}
	if alert.Queries != 1 {
		t.Errorf("naive liar took %d query pairs, want 1", alert.Queries)
	}
	if !VerifyAlert[uint64](gold, a, x, alert) {
		t.Error("valid alert rejected by commoners")
	}
}

func TestConsistentLiarCaughtAtLeaf(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, k := range []int{2, 7, 16, 33, 100} {
		a, x := randomInstance(rng, 5, k)
		col := int(rng.Uint64N(uint64(k)))
		w, err := NewWorker[uint64](gold, a, x, ConsistentLiar, 2, col)
		if err != nil {
			t.Fatal(err)
		}
		alert, err := Audit[uint64](gold, a, x, w.Output(), w.Answer)
		if err != nil {
			t.Fatal(err)
		}
		if alert == nil || alert.Kind != LeafMismatch {
			t.Fatalf("k=%d: alert = %+v, want LeafMismatch", k, alert)
		}
		if alert.LeafCol != col {
			t.Errorf("k=%d: fraud localized to column %d, want %d", k, alert.LeafCol, col)
		}
		// Algorithm 1 must terminate within ceil(log2 k) query pairs.
		maxQ := int(math.Ceil(math.Log2(float64(k)))) + 1
		if alert.Queries > maxQ {
			t.Errorf("k=%d: %d query pairs exceeds log bound %d", k, alert.Queries, maxQ)
		}
		if !VerifyAlert[uint64](gold, a, x, alert) {
			t.Error("valid leaf alert rejected")
		}
	}
}

func TestRefusingWorkerConvicted(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a, x := randomInstance(rng, 4, 8)
	w, err := NewWorker[uint64](gold, a, x, Refusing, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A refusing worker still publishes (a correct) output here; corrupt it
	// manually so the auditor needs answers.
	output := w.Output()
	output[1] = gold.Add(output[1], 1)
	alert, err := Audit[uint64](gold, a, x, output, w.Answer)
	if err != nil {
		t.Fatal(err)
	}
	if alert == nil || alert.Kind != RefusedToAnswer {
		t.Fatalf("alert = %+v, want RefusedToAnswer", alert)
	}
}

func TestVerifyAlertRejectsFabrications(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	a, x := randomInstance(rng, 4, 8)
	if VerifyAlert[uint64](gold, a, x, nil) {
		t.Error("nil alert verified")
	}
	// Fabricated sum mismatch with consistent numbers: arithmetic check
	// fails (2 = 1+1).
	consistent := &Alert[uint64]{
		Kind:  SumMismatch,
		Steps: []Step[uint64]{{Left: 1, Right: 1, Claimed: 2}},
	}
	if VerifyAlert[uint64](gold, a, x, consistent) {
		t.Error("consistent numbers verified as mismatch")
	}
	if VerifyAlert[uint64](gold, a, x, &Alert[uint64]{Kind: SumMismatch}) {
		t.Error("empty steps verified")
	}
	// Leaf claim that happens to be correct.
	truthful := &Alert[uint64]{Kind: LeafMismatch, Row: 0, LeafCol: 0, Claim: gold.Mul(a[0][0], x[0])}
	if VerifyAlert[uint64](gold, a, x, truthful) {
		t.Error("truthful leaf claim verified as fraud")
	}
	outOfRange := &Alert[uint64]{Kind: LeafMismatch, Row: 99, LeafCol: 0}
	if VerifyAlert[uint64](gold, a, x, outOfRange) {
		t.Error("out-of-range alert verified")
	}
	if VerifyAlert[uint64](gold, a, x, &Alert[uint64]{Kind: AlertKind(9)}) {
		t.Error("unknown kind verified")
	}
}

func TestWorkerValidation(t *testing.T) {
	if _, err := NewWorker[uint64](gold, nil, nil, HonestWorker, 0, 0); err == nil {
		t.Error("empty instance should fail")
	}
	if _, err := NewWorker[uint64](gold, [][]uint64{{1, 2}}, []uint64{1}, HonestWorker, 0, 0); err == nil {
		t.Error("ragged matrix should fail")
	}
	if _, err := NewWorker[uint64](gold, [][]uint64{{1}}, []uint64{1}, NaiveLiar, 5, 0); err == nil {
		t.Error("corruption site out of range should fail")
	}
	rng := rand.New(rand.NewPCG(11, 12))
	a, x := randomInstance(rng, 3, 4)
	w, _ := NewWorker[uint64](gold, a, x, HonestWorker, 0, 0)
	if _, err := Audit[uint64](gold, a, x, w.Output()[:2], w.Answer); err == nil {
		t.Error("wrong output length should fail")
	}
}

func TestCommitteeSize(t *testing.T) {
	j, err := CommitteeSize(0.001, 1.0/3.0)
	if err != nil {
		t.Fatal(err)
	}
	// (1/3)^7 ~ 4.6e-4 <= 1e-3 < (1/3)^6 ~ 1.4e-3.
	if j != 7 {
		t.Errorf("J = %d, want 7", j)
	}
	if _, err := CommitteeSize(0, 0.3); err == nil {
		t.Error("epsilon 0 should fail")
	}
	if _, err := CommitteeSize(1, 0.3); err == nil {
		t.Error("epsilon 1 should fail")
	}
	if _, err := CommitteeSize(0.01, 1); err == nil {
		t.Error("mu 1 should fail")
	}
	if j, err := CommitteeSize(0.01, 0); err != nil || j != 1 {
		t.Errorf("mu=0: J=%d err=%v", j, err)
	}
}

func TestElectionStatistics(t *testing.T) {
	// Average committee size over many beacons should be near J.
	const n, j, trials = 100, 8, 400
	total := 0
	for seed := uint64(0); seed < trials; seed++ {
		total += len(ElectCommittee(seed, n, j))
	}
	avg := float64(total) / trials
	if avg < float64(j)*0.8 || avg > float64(j)*1.2 {
		t.Errorf("average committee size %.2f far from J=%d", avg, j)
	}
	if SelfElect(1, 0, 0, 5) || SelfElect(1, 0, 10, 0) {
		t.Error("degenerate election parameters should elect nobody")
	}
	if !SelfElect(1, 3, 5, 5) {
		t.Error("j >= n should elect everybody")
	}
	if ProveElection(7, 3) != ProveElection(7, 3) {
		t.Error("election proof not deterministic")
	}
}

func TestElectNonEmpty(t *testing.T) {
	c, beacon, err := ElectNonEmpty(5, 50, 4)
	if err != nil || len(c) == 0 {
		t.Fatalf("committee %v beacon %d err %v", c, beacon, err)
	}
	if _, _, err := ElectNonEmpty(5, 0, 4); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestElectionSoundness(t *testing.T) {
	// Empirical Section 6.1 guarantee: with µ = 1/3 dishonest and
	// J = log(ε)/log(µ), the fraction of beacons whose committee holds no
	// honest member is about ε (here we only check it is small and within
	// an order of magnitude). An empty committee holds none and raises no
	// alert, so it counts as a failure.
	const n = 120
	mu := 1.0 / 3.0
	eps := 0.01
	j, err := CommitteeSize(eps, mu)
	if err != nil {
		t.Fatal(err)
	}
	dishonest := make(map[int]bool, n/3)
	for i := 0; i < n/3; i++ {
		dishonest[i*3] = true // every third node
	}
	const trials = 3000
	allBad := 0
	for seed := uint64(0); seed < trials; seed++ {
		committee := ElectCommittee(seed, n, j)
		bad := true
		for _, m := range committee {
			if !dishonest[m] {
				bad = false
				break
			}
		}
		if bad {
			allBad++
		}
	}
	frac := float64(allBad) / trials
	if frac > 10*eps {
		t.Errorf("no-honest-member committee rate %.4f >> epsilon %.4f", frac, eps)
	}
	t.Logf("no-honest-member committee rate %.4f (target epsilon %.3f, J=%d)", frac, eps, j)
}

func TestSessionHonestWorkerAccepted(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	a, x := randomInstance(rng, 20, 16)
	out, err := RunSession(SessionConfig[uint64]{
		F: gold, A: a, X: x, NetworkSize: 20,
		Mu: 1.0 / 3.0, Epsilon: 0.01, Seed: 3,
		WorkerStrategy: HonestWorker,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("honest worker rejected")
	}
	if out.ValidAlerts != 0 {
		t.Errorf("%d valid alerts against honest worker", out.ValidAlerts)
	}
}

func TestSessionLiarRejected(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	a, x := randomInstance(rng, 20, 16)
	for _, strategy := range []Strategy{NaiveLiar, ConsistentLiar} {
		out, err := RunSession(SessionConfig[uint64]{
			F: gold, A: a, X: x, NetworkSize: 20,
			Mu: 1.0 / 3.0, Epsilon: 0.01, Seed: 4,
			WorkerStrategy: strategy, CorruptRow: 7, CorruptCol: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Accepted {
			t.Fatalf("%v accepted", strategy)
		}
		if out.ValidAlerts == 0 {
			t.Fatalf("%v produced no valid alerts", strategy)
		}
	}
}

func TestSessionDishonestAuditorsDismissed(t *testing.T) {
	// All-dishonest committee vs honest worker: fabricated alerts must be
	// dismissed and the output accepted.
	rng := rand.New(rand.NewPCG(17, 18))
	a, x := randomInstance(rng, 12, 8)
	dishonest := make(map[int]bool)
	for i := 0; i < 12; i++ {
		dishonest[i] = true
	}
	out, err := RunSession(SessionConfig[uint64]{
		F: gold, A: a, X: x, NetworkSize: 12,
		Mu: 0.4, Epsilon: 0.05, Seed: 5,
		WorkerStrategy: HonestWorker, Dishonest: dishonest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("dishonest auditors defeated an honest worker")
	}
	if out.DismissedAlerts == 0 {
		t.Error("expected dismissed fabricated alerts")
	}
}

func TestSessionDishonestAuditorsShieldLiar(t *testing.T) {
	// All-dishonest committee + lying worker = wrong value accepted. This
	// is exactly the ε-probability failure mode the committee size bounds.
	rng := rand.New(rand.NewPCG(19, 20))
	a, x := randomInstance(rng, 12, 8)
	dishonest := make(map[int]bool)
	for i := 0; i < 12; i++ {
		dishonest[i] = true
	}
	out, err := RunSession(SessionConfig[uint64]{
		F: gold, A: a, X: x, NetworkSize: 12,
		Mu: 0.4, Epsilon: 0.05, Seed: 6,
		WorkerStrategy: ConsistentLiar, CorruptRow: 1, CorruptCol: 2,
		Dishonest: dishonest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("with no honest auditor the lie should survive (the ε case)")
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := RunSession(SessionConfig[uint64]{F: gold, NetworkSize: 1}); err == nil {
		t.Error("tiny network should fail")
	}
}

func TestIntermixComplexityFormula(t *testing.T) {
	// The measured worst-case overhead must not exceed the paper's bound
	// (J+1)c(AX) + 8JK + 3J logK + N-J-1 by more than bookkeeping slack.
	const n, k, j = 64, 32, 5
	counting := field.NewCounting[uint64](gold)
	rng := rand.New(rand.NewPCG(21, 22))
	a, x := randomInstance(rng, n, k)
	w, err := NewWorker[uint64](counting, a, x, ConsistentLiar, n/2, k/2)
	if err != nil {
		t.Fatal(err)
	}
	output := w.Output()
	counting.Reset()
	// One honest audit (the dominant term is one recomputation of AX).
	if _, err := Audit[uint64](counting, a, x, output, w.Answer); err != nil {
		t.Fatal(err)
	}
	measured := counting.Counts().Total()
	cAX := uint64(2 * n * k) // n rows of k mul + k add
	bound := WorstCaseOverhead(j, k, n, cAX)
	if measured > bound {
		t.Errorf("measured single-audit cost %d exceeds J-auditor bound %d", measured, bound)
	}
	t.Logf("single audit cost: %d ops; paper worst-case bound for J=%d auditors: %d ops", measured, j, bound)
}

func TestStrategyAndKindStrings(t *testing.T) {
	for _, s := range []Strategy{HonestWorker, NaiveLiar, ConsistentLiar, Refusing, Strategy(9)} {
		if s.String() == "" {
			t.Error("empty strategy string")
		}
	}
	for _, k := range []AlertKind{SumMismatch, LeafMismatch, RefusedToAnswer, AlertKind(9)} {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
}
