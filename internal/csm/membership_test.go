package csm

import (
	"runtime"
	"slices"
	"testing"

	"codedsm/internal/transport"
)

// ---- Satellite bugfix coverage ----

// TestByzantineHonestEntriesNotCounted pins the fault-budget fix: map
// entries whose value is Honest restate the default and must not count
// against b.
func TestByzantineHonestEntriesNotCounted(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Byzantine = map[int]Behavior{0: Honest, 1: Honest, 2: Honest, 3: WrongResult}
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
	}
}

// TestByzantineOutOfRangeKeyRejected pins the key-range fix: nodes are
// built for 0..N-1 only, so an out-of-range key used to be silently
// ignored — a config that claims a fault the cluster never injects.
func TestByzantineOutOfRangeKeyRejected(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Byzantine = map[int]Behavior{10: Equivocate}
	if _, err := New(cfg); err == nil {
		t.Fatal("Byzantine key N must be rejected")
	}
	cfg.Byzantine = map[int]Behavior{-1: WrongResult}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative Byzantine key must be rejected")
	}
}

func TestRecoveringConfigRejected(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Byzantine = map[int]Behavior{1: Recovering}
	if _, err := New(cfg); err == nil {
		t.Fatal("Recovering is transient and must not be configurable")
	}
}

// ---- Weighted fault budget ----

// TestCrashesAreCheaperThanErrors: a cluster sized for b Byzantine faults
// tolerates up to 2b crashes — an erasure consumes one parity symbol
// where an error consumes two (Table 2).
func TestCrashesAreCheaperThanErrors(t *testing.T) {
	// b=2: 3 WrongResult (load 6) is over budget, 3 Crashed (load 3) is
	// not — and the cluster still executes correctly with them down.
	cfg := baseConfig(2, 12, 2)
	cfg.Byzantine = map[int]Behavior{1: WrongResult, 5: WrongResult, 9: WrongResult}
	if _, err := New(cfg); err == nil {
		t.Fatal("3 errors with b=2 must be rejected")
	}
	cfg.Byzantine = map[int]Behavior{1: Crashed, 5: Crashed, 9: Crashed}
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 3) {
		if !res.Correct {
			t.Fatalf("round %d incorrect with 3 crashed nodes", r)
		}
	}
	if b, _ := c.Behavior(1); b != Crashed {
		t.Fatalf("node 1 behavior %v", b)
	}
}

func TestOutputDeliveryBudget(t *testing.T) {
	// N=6, b=2, K=1: 4 crashes fit the parity budget (4 <= 2b=4) but
	// leave only 2 honest repliers — fewer than the b+1=3 output delivery
	// needs — and must be rejected; 3 crashes are fine.
	cfg := baseConfig(1, 6, 2)
	cfg.Byzantine = map[int]Behavior{0: Crashed, 1: Crashed, 2: Crashed, 3: Crashed}
	if _, err := New(cfg); err == nil {
		t.Fatal("4 crashes of 6 nodes must be rejected (output delivery)")
	}
	cfg.Byzantine = map[int]Behavior{0: Crashed, 1: Crashed, 2: Crashed}
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
	}
}

func TestPartialSyncDarkBudget(t *testing.T) {
	// In partial synchrony at most b nodes may send nothing, or the N-b
	// wait threshold is unreachable.
	cfg := baseConfig(2, 16, 3)
	cfg.Mode = transport.PartialSync
	cfg.Byzantine = map[int]Behavior{0: Crashed, 1: Crashed, 2: Silent, 3: Crashed}
	if _, err := New(cfg); err == nil {
		t.Fatal("4 non-sending nodes with b=3 must be rejected in partial synchrony")
	}
	cfg.Byzantine = map[int]Behavior{0: Crashed, 1: Crashed, 2: Silent}
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
	}
}

func TestPBFTQuorumCrashBudget(t *testing.T) {
	// PBFT's 2b+1 prepare/commit quorum needs N - crashed >= 2b+1 live
	// voters even in a synchronous network: N=10, b=3 admits 3 crashes
	// (quorum 7 of 7 alive) but not 4 — which the parity budget alone
	// (load 4 <= 2b=6) would have allowed.
	cfg := baseConfig(2, 10, 3)
	cfg.Consensus = PBFT
	cfg.Byzantine = map[int]Behavior{1: Crashed, 4: Crashed, 7: Crashed, 8: Crashed}
	if _, err := New(cfg); err == nil {
		t.Fatal("4 crashes of 10 with b=3 must be rejected under PBFT (quorum)")
	}
	cfg.Byzantine = map[int]Behavior{1: Crashed, 4: Crashed, 7: Crashed}
	c := newCluster(t, cfg)
	if err := c.Crash(8); err == nil {
		t.Fatal("a fourth crash must be rejected under PBFT (quorum)")
	}
	for r, res := range runRounds(t, c, 2) {
		if !res.Correct || res.Skipped {
			t.Fatalf("round %d: correct=%v skipped=%v", r, res.Correct, res.Skipped)
		}
	}
}

// ---- Crash / rejoin ----

// TestCrashRejoinRepair is the acceptance scenario: a cluster that
// crashes, repairs, and rejoins a node mid-run still produces
// oracle-correct outputs, and the repaired share is bit-identical to a
// fresh encode of the current machine states.
func TestCrashRejoinRepair(t *testing.T) {
	cfg := baseConfig(3, 12, 2)
	cfg.Byzantine = map[int]Behavior{5: WrongResult}
	cfg.InitialStates = [][]uint64{{10}, {20}, {30}}
	c := newCluster(t, cfg)
	runRounds(t, c, 2)
	if err := c.Crash(7); err != nil {
		t.Fatal(err)
	}
	if !c.net.Down(7) {
		t.Fatal("crashed node still reachable")
	}
	for r, res := range runRounds(t, c, 3) {
		if !res.Correct {
			t.Fatalf("round %d incorrect with node 7 down", r)
		}
	}
	if err := c.Rejoin(7); err != nil {
		t.Fatal(err)
	}
	if b, _ := c.Behavior(7); b != Honest {
		t.Fatalf("rejoined node behavior %v", b)
	}
	// The repaired share equals a fresh encode of the oracle states — the
	// node was re-provisioned without downloading all K states.
	enc, err := c.code.EncodeVectors(c.OracleStates())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c.NodeCodedState(7)
	if !slices.Equal(got, enc[7]) {
		t.Fatalf("repaired share %v, fresh encode %v", got, enc[7])
	}
	stats := c.RepairStats()
	if stats.Repairs != 1 || stats.Failed != 0 {
		t.Fatalf("repair stats %+v", stats)
	}
	if stats.Ops.Total() == 0 {
		t.Fatal("repair cost not accounted")
	}
	// The repaired node participates correctly in subsequent rounds.
	for r, res := range runRounds(t, c, 2) {
		if !res.Correct {
			t.Fatalf("round %d incorrect after rejoin", r)
		}
	}
}

func TestCrashedLeaderSkipsInstance(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Consensus = DolevStrong
	c := newCluster(t, cfg)
	if err := c.Crash(0); err != nil { // node 0 leads instance 0
		t.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 2, 2, 1, 3)
	res0, err := c.ExecuteRound(wl[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res0.Skipped {
		t.Fatal("a crashed leader's instance must be skipped")
	}
	res1, err := c.ExecuteRound(wl[1])
	if err != nil {
		t.Fatal(err)
	}
	if res1.Skipped || !res1.Correct {
		t.Fatalf("honest leader round: %+v", res1)
	}
}

// TestDelegatedCrashedWorkerRetried: a delegated worker that is down is a
// node nobody hears from, so the attempt is abandoned after two ticks and
// the next worker runs the step; a crashed non-worker is one missing
// result. The dead worker used to code for itself alone and every honest
// node adopted the all-zero outputs of its proof.
func TestDelegatedCrashedWorkerRetried(t *testing.T) {
	for _, tc := range []struct {
		crash int
		ticks []int
	}{
		{crash: 0, ticks: []int{6, 4, 4}}, // round 0's worker: one aborted attempt
		{crash: 5, ticks: []int{4, 4, 4}},
	} {
		c := newCluster(t, delegatedConfig(2, 14, 3))
		if err := c.Crash(tc.crash); err != nil {
			t.Fatal(err)
		}
		for r, res := range runRounds(t, c, 3) {
			if !res.Correct || res.Ticks != tc.ticks[r] || !slices.Equal(res.FaultyDetected, []int{tc.crash}) {
				t.Errorf("node %d down, round %d: correct=%v ticks=%d faulty=%v, want true, %d, [%d]",
					tc.crash, r, res.Correct, res.Ticks, res.FaultyDetected, tc.ticks[r], tc.crash)
			}
		}
	}
}

func TestMembershipValidation(t *testing.T) {
	c := newCluster(t, baseConfig(2, 10, 2))
	if err := c.Crash(-1); err == nil {
		t.Error("out-of-range crash should fail")
	}
	if err := c.Rejoin(3); err == nil {
		t.Error("rejoining a live node should fail")
	}
	if err := c.Corrupt(3, Crashed); err == nil {
		t.Error("Corrupt(Crashed) should point at Crash")
	}
	if err := c.Crash(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(3); err == nil {
		t.Error("double crash should fail")
	}
	if err := c.Corrupt(3, WrongResult); err == nil {
		t.Error("corrupting a crashed node should fail")
	}
	if err := c.Rejoin(3); err != nil {
		t.Fatal(err)
	}
	if err := c.Rejoin(3); err == nil {
		t.Error("rejoining an honest node should fail")
	}
}

// ---- Churn schedule ----

func TestChurnValidation(t *testing.T) {
	cfg := baseConfig(2, 10, 2)
	cfg.Churn = []ChurnEvent{{Round: 0, Node: 10, Op: ChurnCrash}}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range churn node should fail")
	}
	cfg.Churn = []ChurnEvent{{Round: -1, Node: 1, Op: ChurnCrash}}
	if _, err := New(cfg); err == nil {
		t.Error("negative churn round should fail")
	}
	cfg.Churn = []ChurnEvent{{Round: 0, Node: 1, Op: ChurnCorrupt, Behavior: Honest}}
	if _, err := New(cfg); err == nil {
		t.Error("corrupt-to-Honest should point at ChurnRelease")
	}
	cfg.Churn = []ChurnEvent{{Round: 0, Node: 1, Op: ChurnCorrupt, Behavior: Crashed}}
	if _, err := New(cfg); err == nil {
		t.Error("corrupt-to-Crashed should point at ChurnCrash")
	}
	cfg.Churn = []ChurnEvent{{Round: 0, Node: 1, Op: ChurnOp(9)}}
	if _, err := New(cfg); err == nil {
		t.Error("unknown churn op should fail")
	}
	cfg = baseConfig(2, 10, 2)
	cfg.Mode = transport.Sync
	cfg.Delegated = true
	cfg.Churn = []ChurnEvent{{Round: 0, Node: 1, Op: ChurnCrash}}
	if _, err := New(cfg); err == nil {
		t.Error("churn + delegated should fail")
	}
	if ChurnCrash.String() != "crash" || ChurnRejoin.String() != "rejoin" ||
		ChurnCorrupt.String() != "corrupt" || ChurnRelease.String() != "release" ||
		ChurnOp(9).String() == "" {
		t.Error("churn op strings")
	}
	if Crashed.String() != "crashed" || Recovering.String() != "recovering" {
		t.Error("behavior strings")
	}
}

// churnSchedule is the scenario the determinism tests share: a crash, a
// moving corruption, a second crash, and both repairs, all mid-run.
func churnSchedule() []ChurnEvent {
	return []ChurnEvent{
		{Round: 1, Node: 2, Op: ChurnCrash},
		{Round: 2, Node: 5, Op: ChurnCorrupt, Behavior: WrongResult},
		{Round: 3, Node: 9, Op: ChurnCrash},
		{Round: 4, Node: 2, Op: ChurnRejoin},
		{Round: 5, Node: 5, Op: ChurnRelease},
		{Round: 5, Node: 11, Op: ChurnCorrupt, Behavior: Equivocate},
		{Round: 6, Node: 9, Op: ChurnRejoin},
	}
}

func churnBaseConfig() Config[uint64] {
	cfg := baseConfig(2, 14, 3)
	cfg.Churn = churnSchedule()
	return cfg
}

// TestChurnRunCorrect: the scheduled churn scenario stays oracle-correct
// in every round and advances the epoch per boundary that applied events.
func TestChurnRunCorrect(t *testing.T) {
	c := newCluster(t, churnBaseConfig())
	for r, res := range runRounds(t, c, 8) {
		if !res.Correct {
			t.Fatalf("round %d incorrect under churn", r)
		}
	}
	if c.Epoch() != 6 {
		t.Fatalf("epoch %d, want 6 (six boundaries applied events)", c.Epoch())
	}
	stats := c.RepairStats()
	if stats.Repairs != 2 {
		t.Fatalf("repairs %d, want 2", stats.Repairs)
	}
	for _, i := range []int{2, 5, 9} {
		if b, _ := c.Behavior(i); b != Honest {
			t.Fatalf("node %d ended %v, want honest", i, b)
		}
	}
}

// requireSameResults asserts two runs are bit-identical, RoundResult for
// RoundResult.
func requireSameResults(t *testing.T, label string, a, b []*RoundResult[uint64]) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rounds", label, len(a), len(b))
	}
	for r := range a {
		if a[r].Correct != b[r].Correct || a[r].Skipped != b[r].Skipped || a[r].Ticks != b[r].Ticks {
			t.Fatalf("%s: round %d header differs: %+v vs %+v", label, r, a[r], b[r])
		}
		if !slices.Equal(a[r].FaultyDetected, b[r].FaultyDetected) {
			t.Fatalf("%s: round %d faulty %v vs %v", label, r, a[r].FaultyDetected, b[r].FaultyDetected)
		}
		for k := range a[r].Outputs {
			if !slices.Equal(a[r].Outputs[k], b[r].Outputs[k]) {
				t.Fatalf("%s: round %d machine %d output %v vs %v", label, r, k, a[r].Outputs[k], b[r].Outputs[k])
			}
		}
	}
}

// TestChurnDeterministicAcrossEngines is the acceptance determinism
// contract: same seed + churn schedule ⇒ bit-identical outputs, ticks and
// op counts, sequential vs parallel vs pipelined, unbatched and batched.
// Each engine runs at its own GOMAXPROCS, the worker count.
func TestChurnDeterministicAcrossEngines(t *testing.T) {
	setGOMAXPROCS(t, 1)
	for _, batch := range []int{1, 2} {
		run := func(workers, pipeline int) (*Cluster[uint64], []*RoundResult[uint64]) {
			runtime.GOMAXPROCS(workers)
			cfg := churnBaseConfig()
			cfg.BatchSize = batch
			cfg.Pipeline = pipeline
			c := newCluster(t, cfg)
			wl := RandomWorkload[uint64](gold, 8, c.cfg.K, c.tr.CmdLen(), 7)
			res, err := c.Run(wl)
			if err != nil {
				t.Fatal(err)
			}
			return c, res
		}
		seqC, seq := run(1, 0)
		parC, par := run(4, 0)
		pipC, pip := run(4, 3)
		requireSameResults(t, "parallel-vs-sequential", seq, par)
		requireSameResults(t, "pipelined-vs-sequential", seq, pip)
		for _, c := range []*Cluster[uint64]{parC, pipC} {
			if c.OpCounts() != seqC.OpCounts() {
				t.Fatalf("B=%d: op counts differ: %+v vs %+v", batch, c.OpCounts(), seqC.OpCounts())
			}
			if c.Epoch() != seqC.Epoch() {
				t.Fatalf("B=%d: epoch %d vs %d", batch, c.Epoch(), seqC.Epoch())
			}
			if c.RepairStats() != seqC.RepairStats() {
				t.Fatalf("B=%d: repair stats differ", batch)
			}
			for i := range seqC.nodes {
				a, _ := seqC.NodeCodedState(i)
				b, _ := c.NodeCodedState(i)
				if !slices.Equal(a, b) {
					t.Fatalf("B=%d: node %d coded state diverged", batch, i)
				}
			}
		}
	}
}

// TestMovingAdversary is the Section 7 dynamic adversary as a ChurnFn:
// the Byzantine set re-targets every epoch, within the per-epoch budget,
// and CSM stays correct — there is no small committee whose capture
// matters.
func TestMovingAdversary(t *testing.T) {
	const k, n, b = 3, 15, 3
	cfg := baseConfig(k, n, b)
	fn, err := MovingAdversary(n, b, 2, WrongResult, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChurnFn = fn
	c := newCluster(t, cfg)
	for r, res := range runRounds(t, c, 8) {
		if !res.Correct {
			t.Fatalf("round %d: dynamic adversary broke CSM", r)
		}
	}
	if c.Epoch() != 4 {
		t.Fatalf("epoch %d, want 4 (adversary moved every 2 rounds)", c.Epoch())
	}
	corrupted := 0
	for i := 0; i < n; i++ {
		if beh, _ := c.Behavior(i); beh != Honest {
			corrupted++
		}
	}
	if corrupted != b {
		t.Fatalf("%d corrupted nodes at end, want exactly b=%d", corrupted, b)
	}
	// Degenerate parameters surface as errors, not hangs or no-ops.
	if _, err := MovingAdversary(4, 5, 2, WrongResult, 1); err == nil {
		t.Error("b > n must be rejected")
	}
	if _, err := MovingAdversary(0, 0, 2, WrongResult, 1); err == nil {
		t.Error("n = 0 must be rejected")
	}
	if _, err := MovingAdversary(8, 2, 0, WrongResult, 1); err == nil {
		t.Error("epochLen < 1 must be rejected")
	}
	if _, err := MovingAdversary(8, 2, 2, Honest, 1); err == nil {
		t.Error("Honest is not a corruption")
	}
	if _, err := MovingAdversary(8, 2, 2, Crashed, 1); err == nil {
		t.Error("Crashed is not a corruption")
	}
}
