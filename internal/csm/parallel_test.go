package csm

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"codedsm/internal/transport"
)

// setGOMAXPROCS sets GOMAXPROCS until the test ends. A cluster runs its
// node-level work on one goroutine at any value, so rounds may not depend
// on it; tests that run engines at several values check that. No test in
// this package runs in parallel with another, so none sees the change.
func setGOMAXPROCS(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// parallelScenarios reuses the csm_test.go Byzantine scenarios for the
// determinism tests: two clusters built from one scenario, or one run
// sequentially and one pipelined, must agree on every observable — round
// results, decoded states, detected-fault sets, coded states, op counts.
func parallelScenarios() map[string]Config[uint64] {
	scenarios := map[string]Config[uint64]{}

	cfg := baseConfig(3, 12, 2)
	scenarios["all-honest"] = cfg

	cfg = baseConfig(3, 12, 2)
	cfg.NewTransition = quadFactory
	scenarios["all-honest-quadratic"] = cfg

	cfg = baseConfig(2, 12, 3)
	cfg.Byzantine = map[int]Behavior{1: WrongResult, 5: WrongResult, 9: WrongResult}
	scenarios["wrong-results"] = cfg

	cfg = baseConfig(2, 12, 3)
	cfg.Byzantine = map[int]Behavior{0: Silent, 4: Silent}
	scenarios["silent-erasures"] = cfg

	cfg = baseConfig(2, 12, 3)
	cfg.Byzantine = map[int]Behavior{2: Equivocate, 7: Equivocate, 11: Equivocate}
	scenarios["equivocation"] = cfg

	cfg = baseConfig(2, 16, 4)
	cfg.Byzantine = map[int]Behavior{0: WrongResult, 3: Silent, 8: Equivocate, 13: WrongResult}
	scenarios["mixed-at-budget"] = cfg

	cfg = baseConfig(2, 16, 4)
	cfg.Mode = transport.PartialSync
	cfg.GST = 0
	cfg.Byzantine = map[int]Behavior{3: Silent, 9: WrongResult}
	scenarios["partial-sync"] = cfg

	cfg = baseConfig(2, 10, 2)
	cfg.Consensus = DolevStrong
	cfg.Byzantine = map[int]Behavior{3: WrongResult}
	scenarios["dolev-strong"] = cfg

	cfg = baseConfig(3, 12, 2)
	cfg.Byzantine = map[int]Behavior{6: WrongResult}
	cfg.InitialStates = [][]uint64{{100}, {200}, {300}}
	scenarios["state-evolution"] = cfg

	// Section 6.2: round 1's worker lies and round 4's sends nothing (both
	// are caught and the round retried under the next worker), node 9
	// lies about its result.
	cfg = delegatedConfig(2, 14, 3)
	cfg.Byzantine = map[int]Behavior{1: WrongResult, 4: Silent, 9: WrongResult}
	scenarios["delegated"] = cfg

	return scenarios
}

// encodeRound renders a round result so byte equality is exact
// structural equality (outputs, correctness, faults, skips, ticks).
func encodeRound(res *RoundResult[uint64]) []byte {
	return fmt.Appendf(nil, "%+v", *res)
}

// TestParallelRoundsBitIdenticalToSequential: two clusters built from one
// scenario run bit-identical rounds, coded states, oracle states and op
// counts, the second at a different GOMAXPROCS, which no round may read.
func TestParallelRoundsBitIdenticalToSequential(t *testing.T) {
	const rounds = 4
	for name, cfg := range parallelScenarios() {
		t.Run(name, func(t *testing.T) {
			setGOMAXPROCS(t, 1)
			first := newCluster(t, cfg)
			second := newCluster(t, cfg)
			wl := RandomWorkload[uint64](gold, rounds, cfg.K, first.tr.CmdLen(), 7)
			for r, cmds := range wl {
				runtime.GOMAXPROCS(1)
				firstRes, err := first.ExecuteRound(cmds)
				if err != nil {
					t.Fatal(err)
				}
				runtime.GOMAXPROCS(4)
				secondRes, err := second.ExecuteRound(cmds)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeRound(firstRes), encodeRound(secondRes)) {
					t.Fatalf("round %d diverged:\nfirst:  %+v\nsecond: %+v", r, firstRes, secondRes)
				}
				if !firstRes.Correct {
					t.Fatalf("round %d incorrect (scenario must execute cleanly)", r)
				}
			}
			// Detected-fault sets and decoded states are part of RoundResult;
			// additionally every node's coded state must match slot for slot.
			for i := 0; i < cfg.N; i++ {
				firstState, err := first.NodeCodedState(i)
				if err != nil {
					t.Fatal(err)
				}
				secondState, err := second.NodeCodedState(i)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(firstState, secondState) {
					t.Fatalf("node %d coded state diverged", i)
				}
			}
			for k, st := range first.OracleStates() {
				if !slices.Equal(st, second.OracleStates()[k]) {
					t.Fatalf("oracle state %d diverged", k)
				}
			}
			if a, b := first.OpCounts(), second.OpCounts(); a != b {
				t.Fatalf("op counts diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// TestParallelismWorkerSweep: a cluster runs its node-level work on one
// goroutine whatever GOMAXPROCS is, and every GOMAXPROCS yields the same
// rounds.
func TestParallelismWorkerSweep(t *testing.T) {
	cfg := baseConfig(2, 12, 3)
	cfg.Byzantine = map[int]Behavior{1: WrongResult, 5: Silent}
	var ref []byte
	for _, procs := range []int{1, 4} {
		c := newCluster(t, cfg)
		setGOMAXPROCS(t, procs)
		if c.Parallelism() != 1 {
			t.Fatalf("GOMAXPROCS %d: Parallelism() = %d, want 1", procs, c.Parallelism())
		}
		wl := RandomWorkload[uint64](gold, 3, 2, c.tr.CmdLen(), 11)
		var trace bytes.Buffer
		for _, cmds := range wl {
			res, err := c.ExecuteRound(cmds)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
			if !res.Correct {
				t.Fatalf("GOMAXPROCS %d: round incorrect", procs)
			}
			trace.Write(encodeRound(res))
		}
		if ref == nil {
			ref = trace.Bytes()
			continue
		}
		if !bytes.Equal(ref, trace.Bytes()) {
			t.Fatalf("GOMAXPROCS %d produced a different round trace", procs)
		}
	}
}

// TestParallelismDefaultsToGOMAXPROCS pins the worker count a cluster
// reports: 1, the driving goroutine, and its rounds come out correct.
func TestParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	c := newCluster(t, baseConfig(2, 12, 3))
	if c.Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d, want 1", c.Parallelism())
	}
	for _, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatal("round incorrect")
		}
	}
}

func BenchmarkEngineDecodePhase(b *testing.B) {
	// One round at N=32, b=10, two liars: all results in, every honest
	// node decodes.
	cfg := baseConfig(0, 32, 10)
	cfg.K = 11 // SyncMaxMachines(32, 10, 1)
	cfg.Byzantine = map[int]Behavior{3: WrongResult, 17: WrongResult}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 1, cfg.K, c.tr.CmdLen(), 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExecuteRound(wl[0]); err != nil {
			b.Fatal(err)
		}
	}
}
