package csm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"codedsm/internal/field"
)

// submitAll drives a client with one in-order submitter goroutine per
// machine, submitting machine k's command of every workload round, and
// returns the admitted futures (indexed [round][machine]) once all
// submissions are enqueued.
func submitAll(t *testing.T, cl *Client[uint64], wl [][][]uint64) [][]*Future[uint64] {
	t.Helper()
	k := len(wl[0])
	futs := make([][]*Future[uint64], len(wl))
	for r := range futs {
		futs[r] = make([]*Future[uint64], k)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, k)
	for machine := 0; machine < k; machine++ {
		wg.Add(1)
		go func(machine int) {
			defer wg.Done()
			for r := range wl {
				fut, err := cl.Submit(context.Background(), machine, wl[r][machine])
				if err != nil {
					errCh <- err
					return
				}
				futs[r][machine] = fut
			}
		}(machine)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("submit: %v", err)
	}
	return futs
}

func roundResultsEqual(t *testing.T, name string, got, want *RoundResult[uint64]) {
	t.Helper()
	if got.Correct != want.Correct || got.Skipped != want.Skipped || got.Ticks != want.Ticks {
		t.Fatalf("%s: correct/skipped/ticks = %v/%v/%d, want %v/%v/%d",
			name, got.Correct, got.Skipped, got.Ticks, want.Correct, want.Skipped, want.Ticks)
	}
	if len(got.FaultyDetected) != len(want.FaultyDetected) {
		t.Fatalf("%s: faulty %v, want %v", name, got.FaultyDetected, want.FaultyDetected)
	}
	for i := range got.FaultyDetected {
		if got.FaultyDetected[i] != want.FaultyDetected[i] {
			t.Fatalf("%s: faulty %v, want %v", name, got.FaultyDetected, want.FaultyDetected)
		}
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got.Outputs), len(want.Outputs))
	}
	for k := range got.Outputs {
		if (got.Outputs[k] == nil) != (want.Outputs[k] == nil) {
			t.Fatalf("%s: machine %d output nil-ness differs", name, k)
		}
		if len(got.Outputs[k]) != len(want.Outputs[k]) {
			t.Fatalf("%s: machine %d output length %d, want %d", name, k, len(got.Outputs[k]), len(want.Outputs[k]))
		}
		for i := range got.Outputs[k] {
			if got.Outputs[k][i] != want.Outputs[k][i] {
				t.Fatalf("%s: machine %d output %v, want %v", name, k, got.Outputs[k], want.Outputs[k])
			}
		}
	}
}

// TestSubmitBitIdenticalToRun pins the deterministic-admission contract:
// a Submit-driven cluster produces bit-identical outputs, op counts, and
// ticks to Run on the same seeded workload, across the sequential,
// parallel, and pipelined engines.
func TestSubmitBitIdenticalToRun(t *testing.T) {
	gold := field.NewGoldilocks()
	base := Config[uint64]{
		BaseField:     gold,
		NewTransition: bankFactory,
		K:             3, N: 13, MaxFaults: 2,
		Consensus: DolevStrong,
		Byzantine: map[int]Behavior{4: WrongResult, 9: Silent},
		Seed:      77,
	}
	// Each engine runs at its own GOMAXPROCS, the worker count.
	pipelined := base
	pipelined.Pipeline, pipelined.BatchSize = 2, 2
	engines := map[string]struct {
		cfg     Config[uint64]
		workers int
	}{
		"sequential": {base, 1},
		"parallel":   {base, 4},
		"pipelined":  {pipelined, 2},
	}
	// 7 rounds with BatchSize 2 exercises a partial final batch too.
	const rounds = 7
	wl := RandomWorkload[uint64](gold, rounds, base.K, 1, 5)
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			setGOMAXPROCS(t, e.workers)
			cfg := e.cfg
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Run(wl)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := sub.Open(WithDeterministicAdmission(), WithSubmitQueueDepth(2))
			if err != nil {
				t.Fatal(err)
			}
			futs := submitAll(t, cl, wl)
			if err := cl.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if got, wantN := sub.Round(), ref.Round(); got != wantN {
				t.Fatalf("rounds executed: %d, want %d", got, wantN)
			}
			for r := range wl {
				res, err := futs[r][0].Round(context.Background())
				if err != nil {
					t.Fatalf("round %d future: %v", r, err)
				}
				roundResultsEqual(t, name, res, want[r])
				for k := range wl[r] {
					out, err := futs[r][k].Wait(context.Background())
					if err != nil {
						t.Fatalf("round %d machine %d: %v", r, k, err)
					}
					wantOut := want[r].Outputs[k]
					if len(out) != len(wantOut) {
						t.Fatalf("round %d machine %d output length %d, want %d", r, k, len(out), len(wantOut))
					}
					for i := range out {
						if out[i] != wantOut[i] {
							t.Fatalf("round %d machine %d output %v, want %v", r, k, out, wantOut)
						}
					}
				}
			}
			if got, wantOps := sub.OpCounts(), ref.OpCounts(); got != wantOps {
				t.Fatalf("op counts %+v, want %+v", got, wantOps)
			}
		})
	}
}

// TestSubmitResultsStream checks the Results iterator yields every
// admitted future in admission order.
func TestSubmitResultsStream(t *testing.T) {
	gold := field.NewGoldilocks()
	c, err := Open(gold, bankFactory, WithNodes(12), WithMachines(3), WithFaults(2), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 4, 3, 1, 8)
	cl, err := c.Open(WithDeterministicAdmission())
	if err != nil {
		t.Fatal(err)
	}
	// The stream starts at the Results call: obtain it before submitting
	// so every admission is observed.
	results := cl.Results()
	futs := submitAll(t, cl, wl)
	go cl.Close()
	seen := 0
	for fut := range results {
		if _, err := fut.Wait(context.Background()); err != nil {
			t.Fatalf("future %d: %v", seen, err)
		}
		// Admission order is round-major, machine-minor.
		if want := futs[seen/3][seen%3]; fut != want {
			t.Fatalf("future %d out of admission order", seen)
		}
		seen++
	}
	if seen != 12 {
		t.Fatalf("streamed %d futures, want 12", seen)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitPadsIdleMachines: closing with only one machine's command
// pending pads the others with the identity command, and the idle
// machines' states are unchanged.
func TestSubmitPadsIdleMachines(t *testing.T) {
	gold := field.NewGoldilocks()
	c, err := Open(gold, bankFactory, WithNodes(12), WithMachines(3), WithFaults(2),
		WithInitialStates([][]uint64{{100}, {200}, {300}}), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.Open()
	if err != nil {
		t.Fatal(err)
	}
	fut, err := cl.Submit(context.Background(), 1, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 207 {
		t.Fatalf("machine 1 output %v, want 207", out)
	}
	states := c.OracleStates()
	if states[0][0] != 100 || states[1][0] != 207 || states[2][0] != 300 {
		t.Fatalf("states after padded round: %v", states)
	}
}

// TestSubmitBackpressure: a full per-machine queue blocks Submit until the
// context is canceled.
func TestSubmitBackpressure(t *testing.T) {
	gold := field.NewGoldilocks()
	c, err := Open(gold, bankFactory, WithNodes(12), WithMachines(2), WithFaults(2), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic admission with machine 1 idle: nothing is ever
	// admitted, so machine 0's queue (depth 1) stays full after one
	// buffered submission (the scheduler holds a second one in its
	// blocking receive).
	cl, err := c.Open(WithDeterministicAdmission(), WithSubmitQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if _, err := cl.Submit(ctx, 0, []uint64{1}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cl.Submit(ctx, 0, []uint64{1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("overfull submit: %v, want deadline exceeded", err)
	}
}

// TestSubmitAfterClose and invalid arguments fail with typed errors.
func TestSubmitValidation(t *testing.T) {
	gold := field.NewGoldilocks()
	c, err := Open(gold, bankFactory, WithNodes(12), WithMachines(2), WithFaults(2), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(); !errors.Is(err, ErrClientOpen) {
		t.Fatalf("second Open while a client is open: %v, want ErrClientOpen", err)
	}
	if _, err := cl.Submit(context.Background(), 5, []uint64{1}); err == nil {
		t.Fatal("out-of-range machine should fail")
	}
	if _, err := cl.Submit(context.Background(), 0, []uint64{1, 2}); err == nil {
		t.Fatal("wrong command length should fail")
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(context.Background(), 0, []uint64{1}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("submit after close: %v, want ErrClientClosed", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// The cluster is released: a new client can open.
	cl2, err := c.Open()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := cl2.Close(); err != nil {
		t.Fatal(err)
	}
	// The single-client guard holds under concurrent Opens.
	const racers = 8
	var wg sync.WaitGroup
	clients := make([]*Client[uint64], racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i], _ = c.Open()
		}(i)
	}
	wg.Wait()
	opened := 0
	for _, won := range clients {
		if won != nil {
			opened++
			if err := won.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if opened != 1 {
		t.Fatalf("%d concurrent Opens succeeded, want exactly 1", opened)
	}
}

// TestSubmitLivenessUnderBadLeader: the ingress client retries a skipped
// consensus instance under the next instances' rotated leaders, so every
// submitted command is eventually executed — the paper's Liveness
// requirement (Section 2.1) — when node 0, the leader of instance 0,
// proposes garbage. Under Dolev-Strong the instance is skipped and the
// chunk retried whole (only the skipped chunk: rounds that executed are
// never re-submitted); under PBFT the backups prepared the valid batch at
// the start view, so instance 0 view-changes to an honest leader, and
// later instances start in that view.
func TestSubmitLivenessUnderBadLeader(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		consensus ConsensusKind
		batch     int
		seed      uint64
		rounds    int
		instances int // 1 skipped + one per executed chunk under Dolev-Strong
	}{
		{"dolev-strong", 13, DolevStrong, 1, 7, 2, 3},
		{"dolev-strong-3-rounds", 10, DolevStrong, 1, 42, 3, 4},
		{"dolev-strong-batch-3", 10, DolevStrong, 3, 42, 6, 3},
		{"pbft-view-change-once", 10, PBFT, 1, 42, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gold := field.NewGoldilocks()
			c, err := Open(gold, bankFactory, WithNodes(tc.n), WithMachines(2), WithFaults(2),
				WithConsensus(tc.consensus), WithByzantineNode(0, BadLeader), WithBatching(tc.batch), WithSeed(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			cl, err := c.Open(WithDeterministicAdmission())
			if err != nil {
				t.Fatal(err)
			}
			futs := submitAll(t, cl, RandomWorkload[uint64](gold, tc.rounds, 2, 1, 9))
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			for r := range futs {
				for k, fut := range futs[r] {
					res, err := fut.Round(context.Background())
					if err != nil {
						t.Fatalf("round %d machine %d: %v", r, k, err)
					}
					if res.Skipped || !res.Correct {
						t.Fatalf("round %d: skipped=%v correct=%v", r, res.Skipped, res.Correct)
					}
					if tc.consensus == PBFT && (r == 0 && res.Ticks <= 4 || r > 0 && res.Ticks != 4) {
						t.Errorf("round %d took %d ticks; want the view change in round 0 only, then 4", r, res.Ticks)
					}
				}
			}
			// The oracle advanced once per round despite the retries.
			if c.tallied != tc.rounds || c.instances != tc.instances {
				t.Fatalf("oracle at round %d after %d instances; want %d, %d",
					c.tallied, c.instances, tc.rounds, tc.instances)
			}
		})
	}
}

// TestOpenOptionValidation: option misuse fails Open eagerly with a
// message naming the option.
func TestOpenOptionValidation(t *testing.T) {
	gold := field.NewGoldilocks()
	cases := map[string][]Option{
		"no nodes":      {WithMachines(2)},
		"bad nodes":     {WithNodes(0)},
		"bad machines":  {WithNodes(12), WithMachines(-1)},
		"bad faults":    {WithNodes(12), WithFaults(-2)},
		"bad batch":     {WithNodes(12), WithBatching(-1)},
		"bad pipeline":  {WithNodes(12), WithPipeline(-1)},
		"bad consensus": {WithNodes(12), WithConsensus(ConsensusKind(42))},
		"bad states":    {WithNodes(12), WithMachines(2), WithInitialStates([][]int{{1}})},
		"nil churn fn":  {WithNodes(12), WithChurnFn(nil)},
		"bad gst":       {WithNodes(12), WithPartialSync(-1)},
		"over capacity": {WithNodes(4), WithMachines(4), WithFaults(2)},
		"budget exceeded": {WithNodes(12), WithMachines(2), WithFaults(1),
			WithByzantine(map[int]Behavior{1: WrongResult, 2: WrongResult})},
	}
	for name, opts := range cases {
		if _, err := Open(gold, bankFactory, opts...); err == nil {
			t.Errorf("%s: Open succeeded, want error", name)
		}
	}
	// The budget failure is typed.
	_, err := Open(gold, bankFactory, WithNodes(12), WithMachines(2), WithFaults(1),
		WithByzantine(map[int]Behavior{1: WrongResult, 2: WrongResult}))
	if !errors.Is(err, ErrFaultBudgetExceeded) {
		t.Fatalf("budget error %v, want ErrFaultBudgetExceeded", err)
	}
	// K defaults to full capacity.
	c, err := Open(gold, bankFactory, WithNodes(12), WithFaults(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.K != 8 { // SyncMaxMachines(12, 2, 1)
		t.Fatalf("defaulted K=%d, want 8", c.cfg.K)
	}
}

// TestTypedErrors: the sentinels classify construction and run failures.
func TestTypedErrors(t *testing.T) {
	gold := field.NewGoldilocks()
	// Quorum: too many non-senders in partial synchrony (crashes are
	// erasures, so three of them fit the 2b=4 parity budget but exceed the
	// b-bounded non-sender rule).
	_, err := Open(gold, bankFactory, WithNodes(12), WithMachines(2), WithFaults(2),
		WithPartialSync(0), WithByzantine(map[int]Behavior{1: Crashed, 2: Crashed, 3: Crashed}))
	if !errors.Is(err, ErrQuorumUnreachable) {
		t.Fatalf("psync dark error %v, want ErrQuorumUnreachable", err)
	}
	// Round limit: the adversary moves BadLeader onto each instance's
	// leader (one corruption at a time fits b=2), so the client's chunk is
	// skipped under a full leader rotation.
	c, err := Open(gold, bankFactory, WithNodes(12), WithMachines(2), WithFaults(2),
		WithConsensus(DolevStrong), WithSeed(2),
		WithChurnFn(func(round int) (evs []ChurnEvent) {
			if round > 0 {
				evs = append(evs, ChurnEvent{Round: round, Node: (round - 1) % 12, Op: ChurnRelease})
			}
			return append(evs, ChurnEvent{Round: round, Node: round % 12, Op: ChurnCorrupt, Behavior: BadLeader})
		}))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.Open(WithDeterministicAdmission())
	if err != nil {
		t.Fatal(err)
	}
	futs := submitAll(t, cl, RandomWorkload[uint64](gold, 1, 2, 1, 3))
	if err := cl.Close(); !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("retry-exhausted client error %v, want ErrRoundLimit", err)
	}
	for k, fut := range futs[0] {
		if _, err := fut.Wait(context.Background()); !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("machine %d: retry-exhausted error %v, want ErrRoundLimit", k, err)
		}
	}
	if c.instances != 12 || c.tallied != 0 {
		t.Fatalf("%d instances, oracle at round %d; want 12 skipped attempts and no round executed", c.instances, c.tallied)
	}
}
