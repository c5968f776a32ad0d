package csm

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"codedsm/internal/transport"
)

// TestPipelinedBitIdenticalToSequential mirrors
// TestParallelRoundsBitIdenticalToSequential for the pipelined engine: for
// every Byzantine scenario, a sequential cluster and a pipelined one (same
// seed, BatchSize 1) must produce byte-identical round reports — outputs,
// correctness, detected-fault sets, skips, and tick counts — plus
// identical coded states, oracle states, and field-operation totals.
func TestPipelinedBitIdenticalToSequential(t *testing.T) {
	const rounds = 6
	for name, cfg := range parallelScenarios() {
		t.Run(name, func(t *testing.T) {
			seqCfg, pipeCfg := cfg, cfg
			seqCfg.Pipeline = 0
			pipeCfg.Pipeline = 4
			seq := newCluster(t, seqCfg)
			pipe := newCluster(t, pipeCfg)
			wl := RandomWorkload[uint64](gold, rounds, cfg.K, seq.tr.CmdLen(), 7)
			seqRes, err := seq.Run(wl)
			if err != nil {
				t.Fatal(err)
			}
			pipeRes, err := pipe.Run(wl)
			if err != nil {
				t.Fatal(err)
			}
			if len(seqRes) != len(pipeRes) {
				t.Fatalf("round counts differ: %d vs %d", len(seqRes), len(pipeRes))
			}
			for r := range seqRes {
				if !bytes.Equal(encodeRound(seqRes[r]), encodeRound(pipeRes[r])) {
					t.Fatalf("round %d diverged:\nsequential: %+v\npipelined:  %+v", r, seqRes[r], pipeRes[r])
				}
				if !seqRes[r].Correct {
					t.Fatalf("round %d incorrect (scenario must execute cleanly)", r)
				}
			}
			for i := 0; i < cfg.N; i++ {
				seqState, err := seq.NodeCodedState(i)
				if err != nil {
					t.Fatal(err)
				}
				pipeState, err := pipe.NodeCodedState(i)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(seqState, pipeState) {
					t.Fatalf("node %d coded state diverged", i)
				}
			}
			for k, seqState := range seq.OracleStates() {
				if !slices.Equal(seqState, pipe.OracleStates()[k]) {
					t.Fatalf("oracle state %d diverged", k)
				}
			}
			if seqOps, pipeOps := seq.OpCounts(), pipe.OpCounts(); seqOps != pipeOps {
				t.Fatalf("op counts diverged: sequential %+v, pipelined %+v", seqOps, pipeOps)
			}
		})
	}
}

// TestPipelinedPartialSyncByzantineMixRace is the race-detector workout:
// a partially synchronous network that stabilizes mid-workload, a
// Byzantine mix at the fault budget, command batching, and a pipeline
// deep enough for >= 3 rounds in flight (depth 4 => up to 5). Run with
// -race in CI.
func TestPipelinedPartialSyncByzantineMixRace(t *testing.T) {
	cfg := baseConfig(2, 16, 4)
	cfg.Mode = transport.PartialSync
	cfg.GST = 3 // pre-GST rounds exercise the sequential-transmit path too
	cfg.Byzantine = map[int]Behavior{0: WrongResult, 3: Silent, 8: Equivocate, 13: WrongResult}
	cfg.Pipeline = 4
	cfg.BatchSize = 3
	setGOMAXPROCS(t, 8)
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 12, 2, c.tr.CmdLen(), 13)
	results, err := c.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(wl) {
		t.Fatalf("completed %d/%d rounds", len(results), len(wl))
	}
	for r, res := range results {
		if !res.Correct {
			t.Fatalf("round %d incorrect under pipelined partial synchrony", r)
		}
	}
}

// TestRunPartialResultsOnError pins the Run error contract: a
// mid-workload failure returns the reports of every fully completed round
// (a workload prefix) plus a BatchError carrying that prefix and the
// failed round's index — on both engines.
func TestRunPartialResultsOnError(t *testing.T) {
	wl := RandomWorkload[uint64](gold, 5, 2, 1, 3)
	wl[3] = [][]uint64{{1, 2}, {3}} // malformed: wrong command length
	for _, pipeline := range []int{0, 4} {
		cfg := baseConfig(2, 12, 3)
		cfg.Pipeline = pipeline
		c := newCluster(t, cfg)
		out, err := c.Run(wl)
		if err == nil {
			t.Fatalf("pipeline=%d: malformed round must fail", pipeline)
		}
		if len(out) != 3 {
			t.Fatalf("pipeline=%d: %d completed rounds returned, want 3", pipeline, len(out))
		}
		var batchErr *BatchError[uint64]
		if !errors.As(err, &batchErr) {
			t.Fatalf("pipeline=%d: error is not a BatchError: %v", pipeline, err)
		}
		if batchErr.Round != 3 {
			t.Fatalf("pipeline=%d: error blames round %d, want 3: %v", pipeline, batchErr.Round, err)
		}
		if len(batchErr.Completed) != len(out) {
			t.Fatalf("pipeline=%d: BatchError carries %d completed rounds, want %d",
				pipeline, len(batchErr.Completed), len(out))
		}
		for r, res := range out {
			if !res.Correct {
				t.Fatalf("pipeline=%d: completed round %d incorrect", pipeline, r)
			}
		}
		if c.Round() != 3 {
			t.Fatalf("pipeline=%d: cluster advanced %d rounds, want 3", pipeline, c.Round())
		}
	}
	// Batched: the batch containing the malformed round fails up front
	// (none of its rounds execute) and the error names the offending
	// round, not just the batch head.
	wl = RandomWorkload[uint64](gold, 6, 2, 1, 3)
	wl[5] = [][]uint64{{1, 2}, {3}}
	cfg := baseConfig(2, 12, 3)
	cfg.BatchSize = 3
	c := newCluster(t, cfg)
	out, err := c.Run(wl)
	var batchErr *BatchError[uint64]
	if err == nil || !errors.As(err, &batchErr) || batchErr.Round != 5 {
		t.Fatalf("batched error must name the malformed round (5): %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("batched: %d completed rounds returned, want 3 (first batch only)", len(out))
	}
}

// TestPipelineConfigValidation pins the knob rules.
func TestPipelineConfigValidation(t *testing.T) {
	cfg := baseConfig(2, 9, 2)
	cfg.Pipeline = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative Pipeline must be rejected")
	}
	cfg = baseConfig(2, 9, 2)
	cfg.BatchSize = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative BatchSize must be rejected")
	}
	c := newCluster(t, baseConfig(2, 12, 2))
	if _, err := c.executeBatch(nil, nil); err == nil {
		t.Error("empty batch must fail")
	}
}
