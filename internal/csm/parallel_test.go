package csm

import (
	"bytes"
	"fmt"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/transport"
)

// parallelScenarios reuses the csm_test.go Byzantine scenarios: each one is
// run with Parallelism 1 and Parallelism 8 and every observable — round
// results, decoded states, detected-fault sets, coded states, op counts —
// must be byte-identical.
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
			seqCfg, parCfg := cfg, cfg
			seqCfg.Parallelism = 1
			parCfg.Parallelism = 8
			seq := newCluster(t, seqCfg)
			par := newCluster(t, parCfg)
			if par.Parallelism() < 2 {
				t.Fatalf("parallel cluster runs with %d workers", par.Parallelism())
			}
			wl := RandomWorkload[uint64](gold, rounds, cfg.K, seq.tr.CmdLen(), 7)
			for r, cmds := range wl {
				seqRes, err := seq.ExecuteRound(cmds)
				if err != nil {
					t.Fatal(err)
				}
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
				if !field.VecEqual[uint64](gold, seqState, parState) {
					t.Fatalf("node %d coded state diverged", i)
				}
			}
			for k, seqState := range seq.OracleStates() {
				if !field.VecEqual[uint64](gold, seqState, par.OracleStates()[k]) {
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

// TestParallelismWorkerSweep pins the knob semantics: explicit counts are
// clamped to N, and any worker count yields the same rounds.
func TestParallelismWorkerSweep(t *testing.T) {
	cfg := baseConfig(2, 12, 3)
	cfg.Byzantine = map[int]Behavior{1: WrongResult, 5: Silent}
	var ref []byte
	for _, workers := range []int{1, 2, 3, 5, 12, 64} {
		wCfg := cfg
		wCfg.Parallelism = workers
		c := newCluster(t, wCfg)
		if workers > cfg.N && c.Parallelism() != cfg.N {
			t.Fatalf("workers=%d not clamped to N=%d: %d", workers, cfg.N, c.Parallelism())
		}
		wl := RandomWorkload[uint64](gold, 3, 2, c.tr.CmdLen(), 11)
		var trace bytes.Buffer
		for _, cmds := range wl {
			res, err := c.ExecuteRound(cmds)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			trace.Write(encodeRound(res))
		}
		if ref == nil {
			ref = trace.Bytes()
			continue
		}
		if !bytes.Equal(ref, trace.Bytes()) {
			t.Fatalf("workers=%d produced a different round trace", workers)
		}
	}
}

// TestParallelismDefaultsToGOMAXPROCS pins the <= 0 default.
func TestParallelismDefaultsToGOMAXPROCS(t *testing.T) {
	c := newCluster(t, baseConfig(2, 12, 3))
	if c.Parallelism() < 1 {
		t.Fatalf("default parallelism %d", c.Parallelism())
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
	// BenchmarkClusterRoundParallel speedups at the root.
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := baseConfig(0, 32, 10)
			cfg.K = 11 // SyncMaxMachines(32, 10, 1)
			cfg.Parallelism = workers
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
		})
	}
}
