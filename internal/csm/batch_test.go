package csm

import (
	"slices"
	"testing"

	"codedsm/internal/transport"
)

// batchScenarios are the oracle-consensus scenarios batching must leave
// observably unchanged (consensus-protocol scenarios change tick and
// leader accounting per batch by design, so they are pinned separately).
func batchScenarios() map[string]Config[uint64] {
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

	cfg = baseConfig(2, 16, 4)
	cfg.Byzantine = map[int]Behavior{0: WrongResult, 3: Silent, 8: Equivocate, 13: WrongResult}
	scenarios["mixed-at-budget"] = cfg

	cfg = baseConfig(2, 16, 4)
	cfg.Mode = transport.PartialSync
	cfg.GST = 0
	cfg.Byzantine = map[int]Behavior{3: Silent, 9: WrongResult}
	scenarios["partial-sync"] = cfg

	return scenarios
}

// TestBatchedMatchesSequentialOutputs proves the batched engine's
// amortizations (one consensus instance, flat-row command encode, primed
// decodes) change nothing observable: outputs, correctness, detected
// faults, coded states, and oracle states all match the unbatched engine
// round for round. Only tick accounting and the operation counts of the
// accelerated decodes may differ.
func TestBatchedMatchesSequentialOutputs(t *testing.T) {
	const rounds = 8
	for name, cfg := range batchScenarios() {
		for _, batch := range []int{2, 4} {
			t.Run(name+"/B="+string(rune('0'+batch)), func(t *testing.T) {
				seq := newCluster(t, cfg)
				bCfg := cfg
				bCfg.BatchSize = batch
				bat := newCluster(t, bCfg)
				wl := RandomWorkload[uint64](gold, rounds, cfg.K, seq.tr.CmdLen(), 7)
				seqRes, err := seq.Run(wl)
				if err != nil {
					t.Fatal(err)
				}
				batRes, err := bat.Run(wl)
				if err != nil {
					t.Fatal(err)
				}
				if len(batRes) != len(seqRes) {
					t.Fatalf("round counts differ: %d vs %d", len(batRes), len(seqRes))
				}
				for r := range seqRes {
					s, b := seqRes[r], batRes[r]
					if s.Correct != b.Correct || s.Skipped != b.Skipped {
						t.Fatalf("round %d flags diverged: %+v vs %+v", r, s, b)
					}
					if !slices.Equal(s.FaultyDetected, b.FaultyDetected) {
						t.Fatalf("round %d faulty sets diverged: %v vs %v", r, s.FaultyDetected, b.FaultyDetected)
					}
					for k := range s.Outputs {
						if (s.Outputs[k] == nil) != (b.Outputs[k] == nil) ||
							(s.Outputs[k] != nil && !slices.Equal(s.Outputs[k], b.Outputs[k])) {
							t.Fatalf("round %d machine %d outputs diverged", r, k)
						}
					}
					if !s.Correct {
						t.Fatalf("round %d incorrect (scenario must execute cleanly)", r)
					}
				}
				for i := 0; i < cfg.N; i++ {
					seqState, err := seq.NodeCodedState(i)
					if err != nil {
						t.Fatal(err)
					}
					batState, err := bat.NodeCodedState(i)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(seqState, batState) {
						t.Fatalf("node %d coded state diverged", i)
					}
				}
				if bat.Round() != seq.Round() {
					t.Fatalf("round counters diverged: %d vs %d", bat.Round(), seq.Round())
				}
			})
		}
	}
}

// TestBatchedPrimedDecodeSavesOps pins the cost of a stable fault pattern
// under oracle consensus: suspicion is carried across steps and batches,
// so after the first round names the liars every later decode — at any
// batch size — is the verified-subset check, and an unbatched run costs
// what a batched one does. Before suspects were sticky a B=1 run forgot
// them every round and paid the error-locator solve each time; the
// batched figure of that engine is the ceiling the unbatched run now has
// to stay under.
func TestBatchedPrimedDecodeSavesOps(t *testing.T) {
	// Batched (B=4) op total of this workload when only micro-steps 2..B
	// were primed; the unbatched total was 381055.
	const batchedOpsBeforeStickySuspects = 188671
	cfg := baseConfig(2, 16, 4)
	cfg.Byzantine = map[int]Behavior{1: WrongResult, 6: WrongResult, 11: WrongResult, 13: WrongResult}
	seq := newCluster(t, cfg)
	bCfg := cfg
	bCfg.BatchSize = 4
	bat := newCluster(t, bCfg)
	wl := RandomWorkload[uint64](gold, 8, 2, 1, 9)
	if _, err := seq.Run(wl); err != nil {
		t.Fatal(err)
	}
	if _, err := bat.Run(wl); err != nil {
		t.Fatal(err)
	}
	seqOps, batOps := seq.OpCounts().Total(), bat.OpCounts().Total()
	if batOps > seqOps {
		t.Fatalf("batched run costlier: %d ops vs %d sequential", batOps, seqOps)
	}
	if seqOps > batchedOpsBeforeStickySuspects {
		t.Fatalf("sequential run costs %d ops, more than the %d a batched run used to", seqOps, batchedOpsBeforeStickySuspects)
	}
	t.Logf("ops per 8 rounds: sequential %d, batched(B=4) %d", seqOps, batOps)
}

// TestBatchedBadLeaderSkipsWholeBatch pins the consensus-batch semantics:
// a garbage proposal skips every round of the batch, and leadership
// rotates per consensus instance (so every node still leads eventually,
// whatever the batch size).
func TestBatchedBadLeaderSkipsWholeBatch(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Consensus = DolevStrong
	cfg.BatchSize = 3
	cfg.Byzantine = map[int]Behavior{0: BadLeader} // node 0 leads the first batch
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 6, 2, 1, 3)
	results, err := c.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if !results[r].Skipped {
			t.Fatalf("round %d of the corrupted batch not skipped", r)
		}
	}
	if results[0].Ticks == 0 || results[1].Ticks != 0 {
		t.Fatalf("consensus ticks must be charged to the batch's first round: %d/%d",
			results[0].Ticks, results[1].Ticks)
	}
	// The second consensus instance is led by node 1: honest leader,
	// executes cleanly.
	for r := 3; r < 6; r++ {
		if results[r].Skipped || !results[r].Correct {
			t.Fatalf("round %d of the honest batch: %+v", r, results[r])
		}
	}
}

// TestBatchedLeaderRotationCoversAllNodes pins that batching cannot
// exclude a BadLeader from ever leading: with gcd(BatchSize, N) > 1,
// round-based rotation would only visit every other node.
func TestBatchedLeaderRotationCoversAllNodes(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Consensus = DolevStrong
	cfg.BatchSize = 2 // gcd(2, 10) = 2: round-based rotation skips odd nodes
	cfg.Byzantine = map[int]Behavior{1: BadLeader}
	c := newCluster(t, cfg)
	results, err := c.Run(RandomWorkload[uint64](gold, 6, 2, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Instance 1 (rounds 2-3) is led by the Byzantine node 1: skipped.
	for r, wantSkip := range []bool{false, false, true, true, false, false} {
		if results[r].Skipped != wantSkip {
			t.Fatalf("round %d: skipped=%v, want %v (leader rotation must reach node 1)",
				r, results[r].Skipped, wantSkip)
		}
	}
}

// TestBatchedConsensusTickAmortization pins that a batch consumes one
// consensus instance: Dolev-Strong ticks appear once per batch, not once
// per round.
func TestBatchedConsensusTickAmortization(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Consensus = DolevStrong
	run := func(batch, rounds int) int {
		bCfg := cfg
		bCfg.BatchSize = batch
		c := newCluster(t, bCfg)
		total := 0
		results, err := c.Run(RandomWorkload[uint64](gold, rounds, 2, 1, 5))
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			total += res.Ticks
		}
		return total
	}
	seqTicks := run(1, 8)
	batTicks := run(4, 8)
	if batTicks >= seqTicks {
		t.Fatalf("batched consensus not amortized: %d ticks vs %d", batTicks, seqTicks)
	}
}
