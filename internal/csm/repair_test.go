package csm

import (
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

func TestRepairNode(t *testing.T) {
	cfg := baseConfig(3, 12, 2)
	cfg.Byzantine = map[int]Behavior{5: WrongResult}
	cfg.InitialStates = [][]uint64{{10}, {20}, {30}}
	c := newCluster(t, cfg)
	// Advance a few rounds so states are non-trivial.
	runRounds(t, c, 3)
	// Wipe node 7's coded state, then repair it from its peers (with the
	// Byzantine node contributing garbage to the repair).
	want, err := c.NodeCodedState(7)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[7].codedState = []uint64{0xdead}
	if err := c.RepairNode(7); err != nil {
		t.Fatal(err)
	}
	got, err := c.NodeCodedState(7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("repaired state %v, want %v", got, want)
	}
	// The repaired node participates correctly in subsequent rounds.
	for _, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatal("round incorrect after repair")
		}
	}
	if err := c.RepairNode(-1); err == nil {
		t.Error("out-of-range repair should fail")
	}
}

func TestRepairNodeVectorState(t *testing.T) {
	// Repair with a multi-coordinate state (affine machine, stateLen=2).
	affine := func(f field.Field[uint64]) (*sm.Transition[uint64], error) {
		return sm.NewAffine(f,
			[][]uint64{{1, 1}, {0, 1}},
			[][]uint64{{1}, {2}})
	}
	c := newCluster(t, Config[uint64]{
		BaseField:     gold,
		NewTransition: affine,
		K:             2, N: 10, MaxFaults: 2,
		Mode:      transport.Sync,
		Consensus: Oracle,
		InitialStates: [][]uint64{
			{5, 6},
			{7, 8},
		},
		Seed: 4,
	})
	runRounds(t, c, 2)
	want, err := c.NodeCodedState(3)
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[3].codedState = []uint64{1, 2}
	if err := c.RepairNode(3); err != nil {
		t.Fatal(err)
	}
	got, _ := c.NodeCodedState(3)
	if !slices.Equal(got, want) {
		t.Fatalf("vector repair %v, want %v", got, want)
	}
}

// TestDynamicAdversary is the Section 7 claim: a dynamic adversary that
// moves its b corruptions to different nodes every round (after observing
// everything) still cannot break CSM — there is no small group to capture.
func TestDynamicAdversary(t *testing.T) {
	const k, n, b = 3, 15, 3
	cfg := baseConfig(k, n, b)
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 6, k, 1, 31)
	for r, cmds := range wl {
		// The adversary re-targets: release old corruptions, seize new ones.
		for i := 0; i < n; i++ {
			if err := c.Corrupt(i, Honest); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < b; j++ {
			if err := c.Corrupt((r*4+j*5)%n, WrongResult); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("round %d: dynamic adversary broke CSM", r)
		}
	}
	// Budget enforcement: a b+1-th simultaneous corruption is refused.
	for i := 0; i < n; i++ {
		_ = c.Corrupt(i, Honest)
	}
	for j := 0; j < b; j++ {
		if err := c.Corrupt(j, WrongResult); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Corrupt(b, WrongResult); err == nil {
		t.Fatal("exceeding the fault budget must be refused")
	}
	if err := c.Corrupt(-1, Honest); err == nil {
		t.Fatal("out-of-range corrupt should fail")
	}
}
