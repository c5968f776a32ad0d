package csm

import (
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/sm"
)

// TestVectorCommandMachine runs the engine with a machine whose state and
// command are vectors (inner-product machine, d=2): multi-component coded
// execution end to end.
func TestVectorCommandMachine(t *testing.T) {
	const dim = 3
	factory := func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
		return sm.NewInnerProduct(f, dim)
	}
	cfg := Config[uint64]{
		BaseField:     gold,
		NewTransition: factory,
		K:             2, N: 14, MaxFaults: 3,
		Consensus: Oracle,
		Byzantine: map[int]Behavior{2: WrongResult, 10: Silent},
		InitialStates: [][]uint64{
			{1, 2, 3},
			{4, 5, 6},
		},
		Seed: 8,
	}
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 4, 2, dim, 9)
	for r, cmds := range wl {
		res, err := c.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("round %d incorrect with vector machine", r)
		}
	}
}

// TestHonestNodesAgree: after a round with equivocating Byzantine nodes on
// a point-to-point network, every honest node holds the identical coded
// state — the paper's consistency claim under equivocation (Section 5.2).
func TestHonestNodesAgree(t *testing.T) {
	cfg := baseConfig(3, 15, 3)
	cfg.Byzantine = map[int]Behavior{1: Equivocate, 7: Equivocate, 13: WrongResult}
	c := newCluster(t, cfg)
	runRounds(t, c, 3)
	enc, err := c.code.EncodeVectors(c.OracleStates())
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.nodes {
		if n.behavior != Honest {
			continue
		}
		if !slices.Equal(n.codedState, enc[i]) {
			t.Fatalf("honest node %d diverged from the canonical coded state", i)
		}
	}
}

// TestDelegatedVectorMachine: delegated mode with multi-component results.
func TestDelegatedVectorMachine(t *testing.T) {
	factory := func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
		return sm.NewInnerProduct(f, 2)
	}
	cfg := Config[uint64]{
		BaseField:     gold,
		NewTransition: factory,
		K:             2, N: 14, MaxFaults: 3,
		Consensus: Oracle,
		Delegated: true,
		Byzantine: map[int]Behavior{6: WrongResult},
		Seed:      12,
	}
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 2, 2, 2, 13)
	for r, cmds := range wl {
		res, err := c.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("delegated vector round %d incorrect", r)
		}
	}
}
