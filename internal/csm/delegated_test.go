package csm

import (
	"runtime"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

func delegatedConfig(k, n, b int) Config[uint64] {
	cfg := baseConfig(k, n, b)
	cfg.Delegated = true
	return cfg
}

func TestDelegatedRequiresBroadcastSync(t *testing.T) {
	cfg := delegatedConfig(2, 12, 2)
	cfg.Mode = transport.PartialSync
	if _, err := New(cfg); err == nil {
		t.Fatal("delegated mode in partial synchrony must be rejected")
	}
}

func TestDelegatedHonestRound(t *testing.T) {
	cfg := delegatedConfig(3, 12, 2)
	cfg.InitialStates = [][]uint64{{10}, {20}, {30}}
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 4) {
		if !res.Correct {
			t.Fatalf("round %d incorrect in delegated mode", r)
		}
	}
	// Honest nodes' coded states must match fresh encodings of the oracle.
	enc, err := c.code.EncodeVectors(c.OracleStates())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.nodes {
		if n.behavior != Honest {
			continue
		}
		if !slices.Equal(n.codedState, enc[i]) {
			t.Fatalf("node %d coded state diverged", i)
		}
	}
}

func TestDelegatedToleratesLyingNodes(t *testing.T) {
	// Byzantine *nodes* (not the worker) corrupt their g_i; the worker's
	// Berlekamp-Welch decode corrects them and the tau proof names them.
	cfg := delegatedConfig(2, 14, 3)
	cfg.Byzantine = map[int]Behavior{3: WrongResult, 8: Silent, 11: WrongResult}
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 3) {
		if !res.Correct {
			t.Fatalf("round %d incorrect with lying nodes", r)
		}
		if len(res.FaultyDetected) == 0 {
			t.Fatalf("round %d: liars not identified in tau complement", r)
		}
	}
}

func TestDelegatedByzantineWorkerRetried(t *testing.T) {
	// Round 0's worker (node 0) is Byzantine: it corrupts its coding work,
	// the auditors catch it, and the attempt is retried under node 1.
	cfg := delegatedConfig(2, 12, 2)
	cfg.Byzantine = map[int]Behavior{0: WrongResult}
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 1, 2, 1, 7)
	res, err := c.ExecuteRound(wl[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("round incorrect despite worker rotation")
	}
	// The retry costs extra ticks (more than one attempt's 4 phases).
	if res.Ticks <= 4 {
		t.Fatalf("expected a retried attempt, ticks=%d", res.Ticks)
	}
}

func TestDelegatedSilentWorkerRetried(t *testing.T) {
	cfg := delegatedConfig(2, 12, 2)
	cfg.Byzantine = map[int]Behavior{0: Silent}
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 1, 2, 1, 9)
	res, err := c.ExecuteRound(wl[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("round incorrect after silent worker")
	}
}

// TestDelegatedLyingWorkerUndecodableRetried: round 2's first worker,
// node 2, lies and is elected its own one-member committee, so its
// corrupted coded command goes unaudited and honest node 0 computes on
// it. The liar's word then holds b+1 wrong results and its decode fails;
// it sends no proof, and the next worker must retry the step instead of
// the round failing.
func TestDelegatedLyingWorkerUndecodableRetried(t *testing.T) {
	const k, n, b = 8, 24, 8
	cfg := delegatedLiarsConfig(k, n, b, 2, 2019)
	c := newCluster(t, cfg)
	results, err := c.Run(RandomWorkload[uint64](gold, 3, k, 1, 2019))
	if err != nil {
		t.Fatal(err)
	}
	for r, res := range results {
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
	}
}

// delegatedLiarsConfig is a delegated N-node cluster of degree-1 registers
// whose b WrongResult liars sit at (5i+offset) mod N.
func delegatedLiarsConfig(k, n, b, offset int, seed uint64) Config[uint64] {
	cfg := delegatedConfig(k, n, b)
	cfg.NewTransition = func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
		return sm.NewPolynomialRegister(f, 1)
	}
	cfg.Seed = seed
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; i < b; i++ {
		cfg.Byzantine[(5*i+offset)%n] = WrongResult
	}
	return cfg
}

// TestDelegatedOpsIndependentOfWorkers: the shape above counts the same
// field ops at GOMAXPROCS 1 as at 4. The lying worker's own DecodeMany
// fails there, and its per-component decodes must all run at any worker
// count.
func TestDelegatedOpsIndependentOfWorkers(t *testing.T) {
	const k, n, b = 8, 24, 8
	ops := map[int]uint64{}
	setGOMAXPROCS(t, 1)
	for _, workers := range []int{1, 4} {
		runtime.GOMAXPROCS(workers)
		c := newCluster(t, delegatedLiarsConfig(k, n, b, 2, 2019))
		if _, err := c.Run(RandomWorkload[uint64](gold, 3, k, 1, 2019)); err != nil {
			t.Fatal(err)
		}
		ops[workers] = c.OpCounts().Total()
	}
	if ops[1] != ops[4] {
		t.Fatalf("field ops depend on the worker count: %d at 1, %d at 4", ops[1], ops[4])
	}
}

// TestDelegatedWrongAdoption: seed 26's round-0 beacon elects nobody at
// N=24. An empty committee audits nothing, so round 0's lying worker
// would be adopted; the round must draw the next beacon instead.
func TestDelegatedWrongAdoption(t *testing.T) {
	const k, n, b = 8, 24, 8
	c := newCluster(t, delegatedLiarsConfig(k, n, b, 0, 26))
	res, err := c.ExecuteRound(RandomWorkload[uint64](gold, 1, k, 1, 26)[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("round 0 adopted a lying worker's outputs")
	}
}

func TestDelegatedConsensusIntegration(t *testing.T) {
	cfg := delegatedConfig(2, 10, 2)
	cfg.Consensus = DolevStrong
	cfg.Byzantine = map[int]Behavior{4: WrongResult}
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatalf("round %d incorrect (delegated + Dolev-Strong)", r)
		}
	}
}

func TestDelegatedThroughputAdvantage(t *testing.T) {
	// The point of Section 6.2: per-node operation counts under delegation
	// are far below the decentralized mode at the same size, because only
	// the worker (plus auditors) pays coding costs instead of every node
	// decoding.
	const k, n, b, rounds = 8, 24, 8, 2
	run := func(delegated bool) uint64 {
		cfg := baseConfig(k, n, b)
		cfg.Delegated = delegated
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wl := RandomWorkload[uint64](gold, rounds, k, 1, 11)
		if _, err := c.Run(wl); err != nil {
			t.Fatal(err)
		}
		return c.OpCounts().Total()
	}
	decentralized := run(false)
	delegated := run(true)
	t.Logf("total ops, N=%d, %d rounds: decentralized=%d delegated=%d (%.1fx)",
		n, rounds, decentralized, delegated, float64(decentralized)/float64(delegated))
	if delegated >= decentralized {
		t.Fatalf("delegation should reduce total coding work: %d >= %d", delegated, decentralized)
	}
}
