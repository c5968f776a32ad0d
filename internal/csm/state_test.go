package csm

import (
	"errors"
	"slices"
	"testing"
)

// The coded read: DecodeMachineState reconstructs exactly the oracle's
// state for every machine, through Byzantine garbage and a crashed
// node's erasure.
func TestDecodeMachineStateMatchesOracle(t *testing.T) {
	cfg := baseConfig(3, 12, 2)
	cfg.Byzantine = map[int]Behavior{5: WrongResult}
	cfg.InitialStates = [][]uint64{{10}, {20}, {30}}
	c := newCluster(t, cfg)
	runRounds(t, c, 3)
	if err := c.Crash(7); err != nil {
		t.Fatal(err)
	}
	want := c.OracleStates()
	for k := range want {
		got, err := c.DecodeMachineState(k)
		if err != nil {
			t.Fatalf("machine %d: %v", k, err)
		}
		if !slices.Equal(got, want[k]) {
			t.Fatalf("machine %d: decoded %v, oracle %v", k, got, want[k])
		}
	}
}

// The coded write: AdoptMachineState's rank-1 share update leaves every
// node's share consistent with the new oracle states — the next decode
// returns the adopted state, and subsequent rounds execute correctly
// from it.
func TestAdoptMachineStateRoundTrips(t *testing.T) {
	cfg := baseConfig(3, 12, 2)
	cfg.Byzantine = map[int]Behavior{5: WrongResult}
	cfg.InitialStates = [][]uint64{{10}, {20}, {30}}
	c := newCluster(t, cfg)
	runRounds(t, c, 2)

	adopted := []uint64{777}
	if err := c.AdoptMachineState(1, adopted); err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeMachineState(1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, adopted) {
		t.Fatalf("decoded %v after adoption, want %v", got, adopted)
	}
	// The other machines' shares must be untouched by the rank-1 update.
	want := c.OracleStates()
	for _, k := range []int{0, 2} {
		got, err := c.DecodeMachineState(k)
		if err != nil {
			t.Fatalf("machine %d: %v", k, err)
		}
		if !slices.Equal(got, want[k]) {
			t.Fatalf("machine %d: decoded %v, oracle %v", k, got, want[k])
		}
	}
	// Rounds after the adoption stay Correct: the nodes' shares and the
	// oracle agree on the cluster's full state.
	for _, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatal("round incorrect after adoption")
		}
	}
}

// Adoption composes with the churn machinery: a node that was crashed
// through an adoption rejoins by repairing its share from the updated
// survivors, and the cluster keeps executing correctly.
func TestAdoptThenRejoinRepairsFromUpdatedShares(t *testing.T) {
	cfg := baseConfig(3, 12, 2)
	cfg.InitialStates = [][]uint64{{10}, {20}, {30}}
	c := newCluster(t, cfg)
	runRounds(t, c, 2)
	if err := c.Crash(4); err != nil {
		t.Fatal(err)
	}
	if err := c.AdoptMachineState(0, []uint64{4242}); err != nil {
		t.Fatal(err)
	}
	if err := c.Rejoin(4); err != nil {
		t.Fatal(err)
	}
	got, err := c.DecodeMachineState(0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []uint64{4242}) {
		t.Fatalf("decoded %v after adopt+rejoin, want [4242]", got)
	}
	for _, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatal("round incorrect after adopt+rejoin")
		}
	}
}

// Both handoff primitives refuse to race an open ingress client.
func TestStateHandoffRequiresNoClient(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	c := newCluster(t, cfg)
	cl, err := c.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeMachineState(0); !errors.Is(err, ErrClientOpen) {
		t.Fatalf("DecodeMachineState with an open client: %v", err)
	}
	if err := c.AdoptMachineState(0, []uint64{1}); !errors.Is(err, ErrClientOpen) {
		t.Fatalf("AdoptMachineState with an open client: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodeMachineState(0); err != nil {
		t.Fatalf("DecodeMachineState after Close: %v", err)
	}
}

// Dimension and range validation.
func TestStateHandoffValidation(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	c := newCluster(t, cfg)
	if _, err := c.DecodeMachineState(2); err == nil {
		t.Error("machine index out of range should fail")
	}
	if err := c.AdoptMachineState(0, []uint64{1, 2}); err == nil {
		t.Error("wrong state length should fail")
	}
	if err := c.AdoptMachineState(-1, []uint64{1}); err == nil {
		t.Error("negative machine index should fail")
	}
}

// TestSystematicShares: lcc.New's points are systematic (ω_k = α_k for
// k < K), so after any number of rounds node k's coded state is machine
// k's plain state, on the simulated Cluster (a K=3 N=10 bank and the
// consensus fixture) and on NodeProcess over local links.
func TestSystematicShares(t *testing.T) {
	bank := newCluster(t, baseConfig(3, 10, 3))
	runRounds(t, bank, 4)
	workload := RandomWorkload[uint64](gold, 4, consK, 1, consSeed)
	fixture := consOracleCluster(t)
	if _, err := fixture.Run(workload); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cluster[uint64]{bank, fixture} {
		for k, want := range c.OracleStates() {
			got, err := c.NodeCodedState(k)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("K=%d N=%d Cluster node %d holds %v, machine %d's state is %v", c.cfg.K, c.cfg.N, k, got, k, want)
			}
		}
	}
	procs := runProcesses(t, processRun{kind: Oracle}, workload).procs
	for k, want := range fixture.OracleStates() {
		if got := procs[k].core.codedState; !slices.Equal(got, want) {
			t.Errorf("NodeProcess %d holds %v, machine %d's state is %v", k, got, k, want)
		}
	}
}
