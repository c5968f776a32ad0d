package csm

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"codedsm/internal/transport"
)

// setGOMAXPROCS sets GOMAXPROCS, the one control over the engine's worker
// count, until the test ends. It is read at every fan-out, so a cluster
// built before a call runs its later rounds at the new count. No test in
// this package runs in parallel with another, so none sees the change.
func setGOMAXPROCS(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// parallelScenarios reuses the csm_test.go Byzantine scenarios: each one is
// run at GOMAXPROCS 1 and 8 and every observable — round results, decoded
// states, detected-fault sets, coded states, op counts — must be
// byte-identical.
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

func TestParallelRoundsBitIdenticalToSequential(t *testing.T) {
	const rounds = 4
	for name, cfg := range parallelScenarios() {
		t.Run(name, func(t *testing.T) {
			seq := newCluster(t, cfg)
			par := newCluster(t, cfg)
			setGOMAXPROCS(t, 8)
			if par.Parallelism() < 2 {
				t.Fatalf("parallel cluster runs with %d workers", par.Parallelism())
			}
			wl := RandomWorkload[uint64](gold, rounds, cfg.K, seq.tr.CmdLen(), 7)
			for r, cmds := range wl {
				runtime.GOMAXPROCS(1)
				seqRes, err := seq.ExecuteRound(cmds)
				if err != nil {
					t.Fatal(err)
				}
				runtime.GOMAXPROCS(8)
				parRes, err := par.ExecuteRound(cmds)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeRound(seqRes), encodeRound(parRes)) {
					t.Fatalf("round %d diverged:\nsequential: %+v\nparallel:   %+v", r, seqRes, parRes)
				}
				if !seqRes.Correct {
					t.Fatalf("round %d incorrect (scenario must execute cleanly)", r)
				}
			}
			// Detected-fault sets and decoded states are part of RoundResult;
			// additionally every node's coded state must match slot for slot.
			for i := 0; i < cfg.N; i++ {
				seqState, err := seq.NodeCodedState(i)
				if err != nil {
					t.Fatal(err)
				}
				parState, err := par.NodeCodedState(i)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(seqState, parState) {
					t.Fatalf("node %d coded state diverged", i)
				}
			}
			for k, seqState := range seq.OracleStates() {
				if !slices.Equal(seqState, par.OracleStates()[k]) {
					t.Fatalf("oracle state %d diverged", k)
				}
			}
			// The same multiset of field operations must have run: atomic
			// counters commute, so totals are order-independent.
			if seqOps, parOps := seq.OpCounts(), par.OpCounts(); seqOps != parOps {
				t.Fatalf("op counts diverged: sequential %+v, parallel %+v", seqOps, parOps)
			}
		})
	}
}

// TestParallelismWorkerSweep pins how the worker count is chosen: it is
// GOMAXPROCS capped at N, read when the round runs, and any count yields
// the same rounds.
func TestParallelismWorkerSweep(t *testing.T) {
	cfg := baseConfig(2, 12, 3)
	cfg.Byzantine = map[int]Behavior{1: WrongResult, 5: Silent}
	var ref []byte
	for _, workers := range []int{1, 2, 3, 5, 12, 64} {
		c := newCluster(t, cfg)
		setGOMAXPROCS(t, workers)
		if want := min(workers, cfg.N); c.Parallelism() != want {
			t.Fatalf("GOMAXPROCS %d: Parallelism() = %d, want %d", workers, c.Parallelism(), want)
		}
		wl := RandomWorkload[uint64](gold, 3, 2, c.tr.CmdLen(), 11)
		var trace bytes.Buffer
		for _, cmds := range wl {
			res, err := c.ExecuteRound(cmds)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", workers, err)
			}
			if !res.Correct {
				t.Fatalf("GOMAXPROCS %d: round incorrect", workers)
			}
			trace.Write(encodeRound(res))
		}
		if ref == nil {
			ref = trace.Bytes()
			continue
		}
		if !bytes.Equal(ref, trace.Bytes()) {
			t.Fatalf("GOMAXPROCS %d produced a different round trace", workers)
		}
	}
}

// TestParallelismDefaultsToGOMAXPROCS pins the default worker count: a
// cluster built with no setting of its own runs on the process's
// GOMAXPROCS, capped at N, and its rounds come out correct.
func TestParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	c := newCluster(t, baseConfig(2, 12, 3))
	if want := min(runtime.GOMAXPROCS(0), 12); c.Parallelism() != want {
		t.Fatalf("default parallelism %d, want %d", c.Parallelism(), want)
	}
	for _, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatal("default-parallelism round incorrect")
		}
	}
}

func BenchmarkEngineDecodePhase(b *testing.B) {
	// Micro-benchmark of the decode fan-out alone: N=32, b=10, all results
	// in, every honest node decodes. Used to sanity-check the
	// BenchmarkClusterRoundParallel speedups at the root. Sweep the worker
	// count with -cpu.
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
