package csm

import (
	"slices"
	"testing"
)

// roundOps executes the workload one round at a time and returns the
// counted field operations of each round, requiring every round correct.
func roundOps(t *testing.T, c *Cluster[uint64], rounds int) []uint64 {
	t.Helper()
	ops := make([]uint64, rounds)
	for r, cmds := range RandomWorkload[uint64](gold, rounds, c.cfg.K, c.tr.CmdLen(), 7) {
		before := c.OpCounts().Total()
		res, err := c.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
		ops[r] = c.OpCounts().Total() - before
	}
	return ops
}

// TestRoundOpCountGuard is the exact-count guard on the decode path at the
// csmload sim-honest shape (N=64, K=22, b=21, Bank, B=1). Counts are exact
// on any host, so the ceilings are tight: before the verified-subset check
// an honest round cost 2.02 M operations (one 64-point interpolation and
// re-evaluation per node per component), and a single extra interpolation
// per decode (~7 k operations x 64 nodes x 2 components) breaks the
// honest ceiling. With liars, a steady-state round — suspects already
// learned — must stay within 1.5x of the honest round even at B=1.
func TestRoundOpCountGuard(t *testing.T) {
	const honestCeiling = 400_000
	honest := roundOps(t, newCluster(t, baseConfig(22, 64, 21)), 3)
	for r, ops := range honest {
		if ops > honestCeiling {
			t.Fatalf("honest round %d: %d counted field ops, ceiling %d", r, ops, honestCeiling)
		}
	}
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
	}
	byz := roundOps(t, newCluster(t, cfg), 4)
	steadyHonest, steadyByz := honest[len(honest)-1], byz[len(byz)-1]
	t.Logf("counted field ops per N=64 K=22 b=21 round: honest %d, 21 WrongResult nodes (steady state, B=1) %d; first Byzantine rounds %v",
		steadyHonest, steadyByz, byz[:2])
	if 2*steadyByz > 3*steadyHonest {
		t.Fatalf("steady-state Byzantine round costs %d ops, more than 1.5x the honest round's %d", steadyByz, steadyHonest)
	}
}

// TestIntermittentLiarForcesOneFallback: node 0 — inside the rows an
// unsuspecting check trusts — lies, sends one more bad result from its
// stale state after being released, then behaves for a round, over and
// over. Every other node falls back to the full decoder once (round 0),
// re-primes around node 0 once (round 1), and from then on keeps node 0
// suspected through its clean rounds: no later round costs more than the
// same round of a cluster where nobody ever lies.
func TestIntermittentLiarForcesOneFallback(t *testing.T) {
	const rounds, liar = 12, 0
	cfg := baseConfig(3, 16, 4)
	clean := roundOps(t, newCluster(t, cfg), rounds)
	cfg.ChurnFn = func(round int) []ChurnEvent {
		switch round % 3 {
		case 0:
			return []ChurnEvent{{Round: round, Node: liar, Op: ChurnCorrupt, Behavior: WrongResult}}
		case 1:
			return []ChurnEvent{{Round: round, Node: liar, Op: ChurnRelease}}
		}
		return nil
	}
	c := newCluster(t, cfg)
	lying := roundOps(t, c, rounds)
	if lying[0] <= clean[0] {
		t.Fatalf("round 0 cost %d ops, no more than the clean cluster's %d: the liar forced no fallback", lying[0], clean[0])
	}
	// Node 0 itself decodes its first stale round (1) with no suspects and
	// re-primes on round 2; everyone is in steady state from round 3.
	for r := 3; r < rounds; r++ {
		if lying[r] > clean[r] {
			t.Fatalf("round %d cost %d ops, the clean cluster's cost %d: a decode fell back again (per round: %v)", r, lying[r], clean[r], lying)
		}
	}
	for i, n := range c.nodes {
		if !slices.Equal(n.suspects, []int{liar}) {
			t.Fatalf("node %d suspects %v after the liar's clean round, want [%d]", i, n.suspects, liar)
		}
	}
}
