package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"codedsm/internal/csm"
	"codedsm/internal/field"
)

// Option configures a router built with Open. Like csm.Option, options
// validate eagerly and fail Open with a message naming the option.
type Option func(*settings) error

type perShardOpts struct {
	shard int
	opts  []csm.Option
}

type settings struct {
	shards      int
	machines    int
	slots       int
	seed        uint64
	clusterOpts []csm.Option
	shardOpts   []perShardOpts
}

// optionErr builds an Option that fails Open with the given message.
func optionErr(format string, args ...any) Option {
	err := fmt.Errorf(format, args...)
	return func(*settings) error { return err }
}

// WithShards sets the shard count S. Required.
func WithShards(s int) Option {
	if s < 1 {
		return optionErr("WithShards(%d): need at least one shard", s)
	}
	return func(st *settings) error { st.shards = s; return nil }
}

// WithMachines sets the global machine count the router serves. Required.
// Machines are addressed by global index [0, machines) and assigned to
// shards by the consistent-hash ring.
func WithMachines(m int) Option {
	if m < 1 {
		return optionErr("WithMachines(%d): need at least one machine", m)
	}
	return func(st *settings) error { st.machines = m; return nil }
}

// WithSlots sets each shard cluster's machine capacity K. A shard must
// have a slot for every machine the ring assigns it, plus free slots to
// receive migrations; the default is the ring's maximum shard load plus
// one. Every shard has the same capacity so a machine can migrate to any
// shard.
func WithSlots(k int) Option {
	if k < 1 {
		return optionErr("WithSlots(%d): need at least one slot per shard", k)
	}
	return func(st *settings) error { st.slots = k; return nil }
}

// WithSeed seeds the ring placement, the per-shard cluster seeds (each
// shard derives its own by a fixed mix), and the two-phase coordinator
// election. Fixed seed ⇒ bit-identical runs.
func WithSeed(seed uint64) Option {
	return func(st *settings) error { st.seed = seed; return nil }
}

// WithClusterOptions appends csm options applied to every shard cluster
// (batching, pipelining, consensus kind, durability, parallelism, ...).
// The router appends its own WithMachines and WithSeed afterwards, so
// per-cluster machine counts and seeds are always router-managed.
func WithClusterOptions(opts ...csm.Option) Option {
	return func(st *settings) error {
		st.clusterOpts = append(st.clusterOpts, opts...)
		return nil
	}
}

// WithClusterOptionsFor appends csm options applied to one shard's
// cluster only, after the shared WithClusterOptions (tests use this to
// give a single shard a fault budget or a churn schedule).
func WithClusterOptionsFor(shard int, opts ...csm.Option) Option {
	if shard < 0 {
		return optionErr("WithClusterOptionsFor(%d): negative shard", shard)
	}
	return func(st *settings) error {
		st.shardOpts = append(st.shardOpts, perShardOpts{shard: shard, opts: opts})
		return nil
	}
}

// placeEntry locates a global machine inside the shard fleet.
type placeEntry struct {
	shard int
	slot  int
}

// Move records one completed rebalance.
type Move struct {
	Machine int
	From    int
	To      int
}

// Router serves a fleet of S independent CSM clusters behind one
// Submit/Future/Results surface. Machines are addressed by global index;
// the consistent-hash ring fixes each machine's home shard and the
// router keeps a machine → (shard, slot) placement that Rebalance
// updates when a machine migrates. Submit routes to the owning shard's
// ingress client; SubmitCross (twophase.go) coordinates commands that
// span shards.
type Router[E comparable] struct {
	f        field.Field[E]
	ring     *Ring
	machines int
	slots    int
	seed     uint64
	cmdLen   int
	stateLen int
	pad      []E
	sessions atomic.Uint64 // two-phase session counter (coordinator beacon)

	clusters []*csm.Cluster[E]

	// mu guards the routing state. Submit holds it shared for the whole
	// enqueue (so a rebalance never closes a client mid-Submit); Rebalance
	// and Close hold it exclusively — that exclusivity is the fence that
	// lets them close, hand off, and reopen shard clients while no new
	// traffic routes.
	mu      sync.RWMutex
	clients []*csm.Client[E]
	place   []placeEntry
	slotOf  [][]int // per shard: slot → global machine, -1 when free
	moves   []Move
	closed  bool
	runErr  error

	// The Results stream mirrors csm.Client.Results: futures are logged
	// in submission order only while a consumer exists.
	logMu    sync.Mutex
	logCond  *sync.Cond
	stream   bool
	finished bool
	log      []*Future[E]
}

// shardSeed derives shard s's cluster seed from the router seed.
func shardSeed(seed uint64, s int) uint64 {
	return mix64(mix64(seed^0x5eed) ^ uint64(s))
}

// Open builds the ring, opens the S shard clusters via csm.Open (so
// every engine option composes), scatters the initial states, and opens
// each shard's ingress client. The router owns the clients until Close.
func Open[E comparable](f field.Field[E], newTransition csm.TransitionFactory[E], opts ...Option) (*Router[E], error) {
	if f == nil || newTransition == nil {
		return nil, fmt.Errorf("shard: Open: the field and transition factory are required")
	}
	var s settings
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("shard: Open: nil Option")
		}
		if err := opt(&s); err != nil {
			return nil, fmt.Errorf("shard: Open: %w", err)
		}
	}
	if s.shards == 0 {
		return nil, fmt.Errorf("shard: Open: WithShards is required")
	}
	if s.machines == 0 {
		return nil, fmt.Errorf("shard: Open: WithMachines is required")
	}
	ring, err := NewRing(s.shards, DefaultVirtualNodes, s.seed)
	if err != nil {
		return nil, fmt.Errorf("shard: Open: %w", err)
	}
	tr, err := newTransition(f)
	if err != nil {
		return nil, fmt.Errorf("shard: Open: building transition: %w", err)
	}
	loads := ring.Loads(s.machines)
	maxLoad := 0
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
	}
	slots := s.slots
	if slots == 0 {
		slots = maxLoad + 1 // headroom to receive one migration
	}
	if slots < maxLoad {
		return nil, fmt.Errorf("shard: Open: WithSlots(%d) below the ring's maximum shard load %d", slots, maxLoad)
	}
	rt := &Router[E]{
		f:        f,
		ring:     ring,
		machines: s.machines,
		slots:    slots,
		seed:     s.seed,
		cmdLen:   tr.CmdLen(),
		stateLen: tr.StateLen(),
		clusters: make([]*csm.Cluster[E], s.shards),
		clients:  make([]*csm.Client[E], s.shards),
		place:    make([]placeEntry, s.machines),
		slotOf:   make([][]int, s.shards),
	}
	rt.logCond = sync.NewCond(&rt.logMu)

	rt.pad = field.ZeroVec(f, rt.cmdLen)

	// Deterministic placement: machines fill their home shard's slots in
	// global machine order.
	for sh := range rt.slotOf {
		rt.slotOf[sh] = make([]int, slots)
		for i := range rt.slotOf[sh] {
			rt.slotOf[sh][i] = -1
		}
	}
	next := make([]int, s.shards)
	for m := 0; m < s.machines; m++ {
		sh := ring.Machine(m)
		slot := next[sh]
		next[sh]++
		rt.place[m] = placeEntry{shard: sh, slot: slot}
		rt.slotOf[sh][slot] = m
	}

	for sh := 0; sh < s.shards; sh++ {
		// Every slot starts at the all-zero state, the additive identity
		// a vacated slot also resets to.
		zeroStates := make([][]E, slots)
		for slot := range zeroStates {
			zeroStates[slot] = field.ZeroVec(f, rt.stateLen)
		}
		clusterOpts := append([]csm.Option(nil), s.clusterOpts...)
		for _, pso := range s.shardOpts {
			if pso.shard >= s.shards {
				return nil, fmt.Errorf("shard: Open: WithClusterOptionsFor(%d) with %d shards", pso.shard, s.shards)
			}
			if pso.shard == sh {
				clusterOpts = append(clusterOpts, pso.opts...)
			}
		}
		// Router-managed knobs go last: later csm options override earlier.
		clusterOpts = append(clusterOpts,
			csm.WithMachines(slots),
			csm.WithSeed(shardSeed(s.seed, sh)),
			csm.WithInitialStates(zeroStates),
		)
		c, err := csm.Open(f, newTransition, clusterOpts...)
		if err != nil {
			return nil, fmt.Errorf("shard: Open: shard %d: %w", sh, err)
		}
		rt.clusters[sh] = c
	}
	for sh := range rt.clients {
		if err := rt.openClient(sh); err != nil {
			for j := 0; j < sh; j++ {
				rt.clients[j].Close()
			}
			return nil, err
		}
	}
	return rt, nil
}

// openClient (re)opens shard sh's ingress client.
func (rt *Router[E]) openClient(sh int) error {
	cl, err := rt.clusters[sh].Open()
	if err != nil {
		return &ShardError{Shard: sh, Err: fmt.Errorf("open client: %w", err)}
	}
	rt.clients[sh] = cl
	return nil
}

// Shards returns the shard count S.
func (rt *Router[E]) Shards() int { return rt.ring.Shards() }

// ShardOf returns the shard currently serving global machine m (its ring
// home unless a Rebalance moved it).
func (rt *Router[E]) ShardOf(m int) (int, error) {
	if m < 0 || m >= rt.machines {
		return 0, fmt.Errorf("shard: ShardOf: machine %d out of range [0,%d)", m, rt.machines)
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.place[m].shard, nil
}

// Loads returns how many machines each shard currently serves.
func (rt *Router[E]) Loads() []int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]int, len(rt.clusters))
	for _, p := range rt.place {
		out[p.shard]++
	}
	return out
}

// Moves returns the completed rebalances, in order.
func (rt *Router[E]) Moves() []Move {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]Move(nil), rt.moves...)
}

// Future is the pending result of one routed command: a csm future plus
// the global machine and shard it routed to. Errors surface wrapped in a
// *ShardError naming the shard, with the csm chain intact underneath.
type Future[E comparable] struct {
	machine int
	shard   int
	inner   *csm.Future[E]
}

// Machine returns the global machine the command addressed.
func (f *Future[E]) Machine() int { return f.machine }

// Shard returns the shard the command routed to.
func (f *Future[E]) Shard() int { return f.shard }

// Done is closed when the future has resolved.
func (f *Future[E]) Done() <-chan struct{} { return f.inner.Done() }

// Wait blocks until the future resolves (or ctx is done) and returns the
// machine's decoded output for the command's round.
func (f *Future[E]) Wait(ctx context.Context) ([]E, error) {
	out, err := f.inner.Wait(ctx)
	if err != nil && ctx.Err() == nil {
		return out, &ShardError{Shard: f.shard, Err: err}
	}
	return out, err
}

// Submit routes cmd to global machine m's shard and enqueues it there,
// returning a Future. Submit may be called from any number of
// goroutines; it blocks while the target machine's queue is full
// (backpressure, honouring ctx) and while a Rebalance or Close holds the
// routing fence.
func (rt *Router[E]) Submit(ctx context.Context, m int, cmd []E) (*Future[E], error) {
	if m < 0 || m >= rt.machines {
		return nil, fmt.Errorf("shard: Submit: machine %d out of range [0,%d)", m, rt.machines)
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.closed {
		return nil, ErrRouterClosed
	}
	p := rt.place[m]
	inner, err := rt.clients[p.shard].Submit(ctx, p.slot, cmd)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, &ShardError{Shard: p.shard, Err: err}
	}
	fut := &Future[E]{machine: m, shard: p.shard, inner: inner}
	rt.logMu.Lock()
	if rt.stream {
		rt.log = append(rt.log, fut)
		rt.logCond.Broadcast()
	}
	rt.logMu.Unlock()
	return fut, nil
}

// Results streams the router's submitted futures in submission order,
// mirroring csm.Client.Results: the stream starts at the Results call,
// blocks waiting for further submissions while the router is open, ends
// once the router has closed and every buffered future was yielded, and
// supports one consumer. SubmitCross commands do not appear (their
// outcomes return synchronously from SubmitCross).
func (rt *Router[E]) Results() iter.Seq[*Future[E]] {
	rt.logMu.Lock()
	rt.stream = true
	rt.logMu.Unlock()
	return func(yield func(*Future[E]) bool) {
		defer func() {
			rt.logMu.Lock()
			rt.stream = false
			rt.log = nil
			rt.logMu.Unlock()
		}()
		for {
			rt.logMu.Lock()
			for len(rt.log) == 0 && !rt.finished {
				rt.logCond.Wait()
			}
			if len(rt.log) == 0 {
				rt.logMu.Unlock()
				return
			}
			f := rt.log[0]
			rt.log[0] = nil
			rt.log = rt.log[1:]
			rt.logMu.Unlock()
			if !yield(f) {
				return
			}
		}
	}
}

// Rebalance migrates global machine m to shard `to` through the coded
// handoff: the routing fence closes the source and target shards'
// clients (draining their queues, so every in-flight future resolves or
// fails deterministically before the move), the source decodes the
// machine's state from its nodes' coded shares
// (csm.DecodeMachineState), the target installs it as a rank-1 share
// update (csm.AdoptMachineState), the vacated source slot resets to the
// all-zero state, and both clients reopen. Traffic on other shards is
// never fenced.
func (rt *Router[E]) Rebalance(m, to int) error {
	if m < 0 || m >= rt.machines {
		return fmt.Errorf("shard: Rebalance: machine %d out of range [0,%d)", m, rt.machines)
	}
	if to < 0 || to >= len(rt.clusters) {
		return fmt.Errorf("shard: Rebalance: shard %d out of range [0,%d)", to, len(rt.clusters))
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return ErrRouterClosed
	}
	from := rt.place[m].shard
	if from == to {
		return fmt.Errorf("shard: Rebalance: machine %d already on shard %d", m, to)
	}
	dstSlot := -1
	for i, occ := range rt.slotOf[to] {
		if occ < 0 {
			dstSlot = i
			break
		}
	}
	if dstSlot < 0 {
		return fmt.Errorf("shard: Rebalance: shard %d has no free slot (capacity %d)", to, rt.slots)
	}

	// Fence: drain and close the two involved clients. A sticky run error
	// poisons the move — the failed shard's state is not a safe handoff
	// source or target — but the clients still reopen so the router keeps
	// serving whatever the clusters can still do.
	closeErr := func() error {
		for _, sh := range [2]int{from, to} {
			if err := rt.clients[sh].Close(); err != nil {
				return &ShardError{Shard: sh, Err: err}
			}
		}
		return nil
	}()

	var moveErr error
	srcSlot := rt.place[m].slot
	if closeErr == nil {
		moveErr = func() error {
			state, err := rt.clusters[from].DecodeMachineState(srcSlot)
			if err != nil {
				return &ShardError{Shard: from, Err: err}
			}
			if err := rt.clusters[to].AdoptMachineState(dstSlot, state); err != nil {
				return &ShardError{Shard: to, Err: err}
			}
			if err := rt.clusters[from].AdoptMachineState(srcSlot, field.ZeroVec(rt.f, rt.stateLen)); err != nil {
				return &ShardError{Shard: from, Err: err}
			}
			return nil
		}()
	}
	if closeErr == nil && moveErr == nil {
		rt.place[m] = placeEntry{shard: to, slot: dstSlot}
		rt.slotOf[from][srcSlot] = -1
		rt.slotOf[to][dstSlot] = m
		rt.moves = append(rt.moves, Move{Machine: m, From: from, To: to})
	}

	for _, sh := range [2]int{from, to} {
		if err := rt.openClient(sh); err != nil {
			rt.closed = true
			rt.finish()
			return fmt.Errorf("shard: Rebalance: reopening after move: %w", err)
		}
	}
	if closeErr != nil {
		return fmt.Errorf("shard: Rebalance: fencing machine %d: %w", m, closeErr)
	}
	if moveErr != nil {
		return fmt.Errorf("shard: Rebalance: moving machine %d: %w", m, moveErr)
	}
	return nil
}

// Close drains and closes every shard client and finishes the Results
// stream. It returns the first shard run error, wrapped in a ShardError.
// Close is idempotent; Submit fails with ErrRouterClosed afterwards.
func (rt *Router[E]) Close() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return rt.runErr
	}
	rt.closed = true
	for sh, cl := range rt.clients {
		if err := cl.Close(); err != nil && rt.runErr == nil {
			rt.runErr = &ShardError{Shard: sh, Err: err}
		}
	}
	rt.finish()
	return rt.runErr
}

// finish ends the Results stream. Callers hold rt.mu.
func (rt *Router[E]) finish() {
	rt.logMu.Lock()
	rt.finished = true
	rt.logCond.Broadcast()
	rt.logMu.Unlock()
}

// MachineState reconstructs global machine m's current state from its
// shard's coded shares (csm.DecodeMachineState). The router must be
// closed — while it is open the shard clients own the clusters.
func (rt *Router[E]) MachineState(m int) ([]E, error) {
	if m < 0 || m >= rt.machines {
		return nil, fmt.Errorf("shard: MachineState: machine %d out of range [0,%d)", m, rt.machines)
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if !rt.closed {
		return nil, fmt.Errorf("shard: MachineState: the router is still serving (Close it first)")
	}
	p := rt.place[m]
	state, err := rt.clusters[p.shard].DecodeMachineState(p.slot)
	if err != nil {
		return nil, &ShardError{Shard: p.shard, Err: err}
	}
	return state, nil
}

// StateDigests returns each global machine's state digest, in global
// machine order, decoded from the owning shards' coded shares. The
// router must be closed. A sharded run and an unsharded oracle run of
// the same commands agree on every digest — the acceptance check the
// multitenant example and the router tests pin.
func (rt *Router[E]) StateDigests() ([]string, error) {
	out := make([]string, rt.machines)
	for m := range out {
		state, err := rt.MachineState(m)
		if err != nil {
			return nil, err
		}
		out[m] = DigestState(rt.f, state)
	}
	return out, nil
}

// DigestState returns the hex SHA-256 digest of a state vector under the
// field's canonical little-endian uint64 representation — the
// cross-cluster comparison format (a sharded shard slot and an unsharded
// oracle machine digest equal iff their states are element-wise equal).
func DigestState[E comparable](f field.Field[E], state []E) string {
	h := sha256.New()
	var buf [8]byte
	for _, e := range state {
		binary.LittleEndian.PutUint64(buf[:], f.Uint64(e))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
