package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"codedsm/internal/csm"
	"codedsm/internal/field"
	"codedsm/internal/sm"
)

var gold = field.NewGoldilocks()

// twoShardedMachines returns two machines the ring places on different
// shards (every multi-shard ring over enough machines has such a pair).
func twoShardedMachines(t *testing.T, ring *Ring, machines int) (a, b int) {
	t.Helper()
	for m := 1; m < machines; m++ {
		if ring.Machine(m) != ring.Machine(0) {
			return 0, m
		}
	}
	t.Fatalf("all %d machines landed on shard %d", machines, ring.Machine(0))
	return 0, 0
}

// The acceptance-criteria scenario: a seeded S=3 sharded run with
// single-shard traffic, a cross-shard two-phase command, and one
// rebalance produces per-machine final digests bit-identical to an
// unsharded single-cluster oracle fed the same commands — at any
// execution-phase worker count.
func TestShardedDigestsMatchUnshardedOracle(t *testing.T) {
	const (
		shards   = 3
		machines = 8
		nodes    = 12
		faults   = 1
		rounds   = 5
		seed     = 7
	)
	ctx := context.Background()

	// The command schedule, as (machine, delta) pairs. Cross-shard ops are
	// part of it; prepare probes are identity commands and do not appear.
	type cmd struct {
		machine int
		delta   uint64
	}
	var schedule []cmd
	for r := 0; r < rounds; r++ {
		for m := 0; m < machines; m++ {
			schedule = append(schedule, cmd{machine: m, delta: uint64(1 + m*10 + r)})
		}
	}

	ring, err := NewRing(shards, DefaultVirtualNodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := twoShardedMachines(t, ring, machines)
	// A cross-shard transfer: debit src, credit dst (the debit is the
	// field negation, so the pair sums to zero).
	const amount = 500
	debit := gold.Neg(gold.FromUint64(amount))
	credit := gold.FromUint64(amount)
	schedule = append(schedule, cmd{machine: src, delta: debit}, cmd{machine: dst, delta: credit})

	// The shards' rounds fan out over GOMAXPROCS workers.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runSharded := func(workers int) []string {
		runtime.GOMAXPROCS(workers)
		rt, err := Open(gold, sm.NewBank[uint64],
			WithShards(shards), WithMachines(machines), WithSeed(seed),
			WithClusterOptions(
				csm.WithNodes(nodes), csm.WithFaults(faults),
				csm.WithByzantineNode(3, csm.WrongResult),
				csm.WithBatching(2)))
		if err != nil {
			t.Fatal(err)
		}
		// Single-shard traffic, waiting round by round.
		for r := 0; r < rounds; r++ {
			var futs []*Future[uint64]
			for m := 0; m < machines; m++ {
				fut, err := rt.Submit(ctx, m, []uint64{uint64(1 + m*10 + r)})
				if err != nil {
					t.Fatalf("round %d machine %d: %v", r, m, err)
				}
				futs = append(futs, fut)
			}
			for _, fut := range futs {
				if _, err := fut.Wait(ctx); err != nil {
					t.Fatalf("round %d machine %d: %v", r, fut.Machine(), err)
				}
			}
			if r == 2 {
				// Mid-run hot-shard rebalance: move src to a third shard
				// (one holding neither src nor dst).
				target := 0
				for sh := 0; sh < shards; sh++ {
					if sh != ring.Machine(src) && sh != ring.Machine(dst) {
						target = sh
						break
					}
				}
				if err := rt.Rebalance(src, target); err != nil {
					t.Fatalf("rebalance: %v", err)
				}
				if got, _ := rt.ShardOf(src); got != target {
					t.Fatalf("after rebalance ShardOf(%d) = %d, want %d", src, got, target)
				}
			}
		}
		// The cross-shard transfer (src moved, so its current shard still
		// differs from dst's — the rebalance target excluded dst's shard).
		outs, err := rt.SubmitCross(ctx, []Op[uint64]{
			{Machine: src, Cmd: []uint64{debit}},
			{Machine: dst, Cmd: []uint64{credit}},
		})
		if err != nil {
			t.Fatalf("cross-shard transfer: %v", err)
		}
		if len(outs) != 2 {
			t.Fatalf("cross-shard transfer returned %d outputs, want 2", len(outs))
		}
		if moves := rt.Moves(); len(moves) != 1 || moves[0].Machine != src {
			t.Fatalf("moves = %+v, want exactly one move of machine %d", moves, src)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		digests, err := rt.StateDigests()
		if err != nil {
			t.Fatal(err)
		}
		return digests
	}

	// The unsharded oracle: one cluster serving all machines, fed the same
	// schedule through its own ingress client.
	oracle := func() []string {
		c, err := csm.Open(gold, sm.NewBank[uint64],
			csm.WithNodes(nodes), csm.WithMachines(machines), csm.WithFaults(faults),
			csm.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := c.Open()
		if err != nil {
			t.Fatal(err)
		}
		var futs []*csm.Future[uint64]
		for _, sc := range schedule {
			fut, err := cl.Submit(ctx, sc.machine, []uint64{sc.delta})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
		for _, fut := range futs {
			if _, err := fut.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		digests := make([]string, machines)
		for m := range digests {
			state, err := c.DecodeMachineState(m)
			if err != nil {
				t.Fatal(err)
			}
			digests[m] = DigestState[uint64](gold, state)
		}
		return digests
	}()

	for _, workers := range []int{1, 8} {
		digests := runSharded(workers)
		for m := range digests {
			if digests[m] != oracle[m] {
				t.Errorf("GOMAXPROCS %d: machine %d digest %s != oracle %s",
					workers, m, digests[m], oracle[m])
			}
		}
	}
}

// A shard that dies mid-prepare (a fault-budget-violating crash on its
// first round, the PR 4 churn machinery) aborts the two-phase command
// with a typed error, commits nothing anywhere, and leaves single-shard
// traffic on the surviving shards untouched.
func TestCrossShardAbortsWhenShardCrashesInPrepare(t *testing.T) {
	const (
		shards   = 3
		machines = 6
		nodes    = 6
		seed     = 21
	)
	ctx := context.Background()
	ring, err := NewRing(shards, DefaultVirtualNodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	survivorM, victimM := twoShardedMachines(t, ring, machines)
	victim := ring.Machine(victimM)

	rt, err := Open(gold, sm.NewBank[uint64],
		WithShards(shards), WithMachines(machines), WithSeed(seed),
		WithClusterOptions(csm.WithNodes(nodes), csm.WithFaults(1)),
		// The victim shard has no fault budget and a scheduled crash at its
		// first round: the prepare probe is the first command it ever runs,
		// so the crash fires mid-prepare and fails the run.
		WithClusterOptionsFor(victim, csm.WithFaults(0),
			csm.WithChurn(csm.ChurnEvent{Round: 0, Node: 0, Op: csm.ChurnCrash})))
	if err != nil {
		t.Fatal(err)
	}

	_, err = rt.SubmitCross(ctx, []Op[uint64]{
		{Machine: survivorM, Cmd: []uint64{100}},
		{Machine: victimM, Cmd: []uint64{100}},
	})
	if err == nil {
		t.Fatal("cross-shard command succeeded despite the victim shard crashing in prepare")
	}
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("error %v (%T) is not an *AbortError", err, err)
	}
	if abort.Phase != PhasePrepare {
		t.Fatalf("abort phase %q, want %q", abort.Phase, PhasePrepare)
	}
	if abort.Shard != victim {
		t.Fatalf("abort names shard %d, want the victim %d", abort.Shard, victim)
	}
	if len(abort.Committed) != 0 {
		t.Fatalf("prepare-phase abort lists committed shards %v", abort.Committed)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("abort error does not match ErrAborted: %v", err)
	}
	if !errors.Is(err, csm.ErrFaultBudgetExceeded) {
		t.Fatalf("abort error does not expose the csm fault-budget chain: %v", err)
	}

	// Survivors serve single-shard traffic as if nothing happened.
	fut, err := rt.Submit(ctx, survivorM, []uint64{50})
	if err != nil {
		t.Fatalf("survivor submit after abort: %v", err)
	}
	if out, err := fut.Wait(ctx); err != nil || len(out) != 1 || out[0] != 50 {
		t.Fatalf("survivor output %v, %v; want [50]", out, err)
	}

	// The victim's client is sticky-failed; its machines reject traffic
	// with the closed-client error, shard-attributed.
	if _, err := rt.Submit(ctx, victimM, []uint64{1}); !errors.Is(err, csm.ErrClientClosed) {
		t.Fatalf("victim submit error %v, want csm.ErrClientClosed in the chain", err)
	}
	var serr *ShardError
	if _, err := rt.Submit(ctx, victimM, []uint64{1}); !errors.As(err, &serr) || serr.Shard != victim {
		t.Fatalf("victim submit error %v not attributed to shard %d", err, victim)
	}

	// Close (the victim's sticky run error surfaces here) and verify no
	// machine holds any trace of the aborted command: the survivor's state
	// is exactly its post-abort deposit, the victim machine is untouched.
	if err := rt.Close(); !errors.Is(err, csm.ErrFaultBudgetExceeded) {
		t.Fatalf("close error %v, want the victim's fault-budget error", err)
	}
	state, err := rt.MachineState(survivorM)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 || state[0] != 50 {
		t.Fatalf("survivor machine state %v, want [50] (the aborted 100 must not commit)", state)
	}
	state, err = rt.MachineState(victimM)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 1 || state[0] != 0 {
		t.Fatalf("victim machine state %v, want [0] (nothing committed)", state)
	}
}

// The typed-error contract: AbortError and ShardError match their
// sentinels and keep the underlying csm chains visible to errors.Is.
func TestErrorContract(t *testing.T) {
	inner := fmt.Errorf("run 3: %w", csm.ErrRoundLimit)
	abort := &AbortError{Phase: PhaseCommit, Shard: 2, Committed: []int{0}, Err: inner}
	if !errors.Is(abort, ErrAborted) {
		t.Error("AbortError does not match ErrAborted")
	}
	if !errors.Is(abort, csm.ErrRoundLimit) {
		t.Error("AbortError hides the csm.ErrRoundLimit chain")
	}
	serr := &ShardError{Shard: 1, Err: fmt.Errorf("x: %w", csm.ErrClientClosed)}
	if !errors.Is(serr, csm.ErrClientClosed) {
		t.Error("ShardError hides the csm.ErrClientClosed chain")
	}
	if errors.Is(serr, ErrAborted) {
		t.Error("ShardError spuriously matches ErrAborted")
	}
}

// Results streams every routed future in submission order.
func TestRouterResultsStream(t *testing.T) {
	const machines = 4
	ctx := context.Background()
	rt, err := Open(gold, sm.NewBank[uint64],
		WithShards(2), WithMachines(machines), WithSeed(3),
		WithClusterOptions(csm.WithNodes(8), csm.WithFaults(1)))
	if err != nil {
		t.Fatal(err)
	}
	results := rt.Results()
	done := make(chan []int)
	go func() {
		var order []int
		for fut := range results {
			if _, err := fut.Wait(ctx); err != nil {
				t.Errorf("streamed future failed: %v", err)
			}
			order = append(order, fut.Machine())
		}
		done <- order
	}()
	var want []int
	for r := 0; r < 3; r++ {
		for m := 0; m < machines; m++ {
			if _, err := rt.Submit(ctx, m, []uint64{1}); err != nil {
				t.Fatal(err)
			}
			want = append(want, m)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	order := <-done
	if len(order) != len(want) {
		t.Fatalf("streamed %d futures, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("stream position %d machine %d, want %d", i, order[i], want[i])
		}
	}
}
