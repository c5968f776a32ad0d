// Ingress: the serving-oriented front of the CSM engine. A Cluster built
// for batch workloads executes pre-assembled rounds ([][][]E); a service
// receives commands one at a time, from many concurrent clients, for
// whichever machine each command addresses. Cluster.Open bridges the two:
// it returns a Client whose Submit enqueues a single command for one
// machine and returns a Future, while a scheduler goroutine coalesces
// pending submissions into full rounds (padding idle machines with the
// all-zero command, the identity of the additive machines), groups them
// into consensus batches of Config.BatchSize, drives the existing engines
// underneath, and resolves each Future with its machine's decoded output.
//
// Two admission policies are offered:
//
//   - Eager (the default): any pending command is admitted immediately;
//     machines with nothing pending are padded. Latency-optimal, but the
//     round composition depends on arrival timing.
//
//   - Deterministic (WithDeterministicAdmission): a round is admitted only
//     once every machine has a pending command (or the client is closing,
//     which pads the remainder), and a consensus batch runs only when full
//     (or at close). Admission becomes a pure function of per-machine
//     submission order, so a seeded cluster driven through Submit is
//     bit-identical — outputs, op counts, ticks — to Run on the equivalent
//     workload (TestSubmitBitIdenticalToRun pins this for the sequential,
//     parallel, and pipelined engines).
//
// Backpressure is a bounded per-machine queue (WithSubmitQueueDepth):
// Submit blocks while its machine's queue is full, honouring the caller's
// context.
package csm

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"codedsm/internal/field"
)

// DefaultSubmitQueueDepth is the per-machine pending-command bound a
// client applies when WithSubmitQueueDepth is not given.
const DefaultSubmitQueueDepth = 16

// ClientOption configures Cluster.Open.
type ClientOption func(*clientSettings) error

type clientSettings struct {
	queueDepth    int
	deterministic bool
}

// clientOptionErr builds a ClientOption that fails Open with the message.
func clientOptionErr(format string, args ...any) ClientOption {
	err := fmt.Errorf(format, args...)
	return func(*clientSettings) error { return err }
}

// WithSubmitQueueDepth bounds each machine's pending-submission queue:
// Submit blocks (respecting its context) while the addressed machine
// already has this many commands waiting.
func WithSubmitQueueDepth(depth int) ClientOption {
	if depth < 1 {
		return clientOptionErr("WithSubmitQueueDepth(%d): need a positive depth", depth)
	}
	return func(s *clientSettings) error { s.queueDepth = depth; return nil }
}

// WithDeterministicAdmission makes admission a pure function of
// per-machine submission order: a round is admitted only when every
// machine has a pending command (or the client is closing), and a
// consensus batch runs only when Config.BatchSize rounds are assembled
// (or at close). A seeded cluster driven through Submit by in-order
// submitters is then bit-identical to Run on the equivalent workload.
// The cost is latency: commands wait for their round- and batch-mates,
// so do not Wait on a Future before submitting the commands that
// complete its batch.
func WithDeterministicAdmission() ClientOption {
	return func(s *clientSettings) error { s.deterministic = true; return nil }
}

// Future is the pending result of one submitted command. It resolves when
// the command's round has executed and its machine's output was decoded
// (or when the round failed; ErrQuorumUnreachable marks an output that
// never gathered b+1 matching client replies).
type Future[E comparable] struct {
	machine int
	done    chan struct{}

	// Written exactly once before done is closed; read only after.
	out []E
	res *RoundResult[E]
	err error
}

// Machine returns the machine the command addressed.
func (f *Future[E]) Machine() int { return f.machine }

// Done is closed when the future has resolved.
func (f *Future[E]) Done() <-chan struct{} { return f.done }

// Wait blocks until the future resolves (or ctx is done) and returns the
// machine's decoded output for the command's round.
func (f *Future[E]) Wait(ctx context.Context) ([]E, error) {
	select {
	case <-f.done:
		return f.out, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Round blocks until the future resolves (or ctx is done) and returns the
// full report of the round that carried the command. The report may be
// non-nil even when the future resolved with an error (e.g. a quorum
// failure on this machine's output in an otherwise-executed round).
func (f *Future[E]) Round(ctx context.Context) (*RoundResult[E], error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (f *Future[E]) resolve(out []E, res *RoundResult[E], err error) {
	f.out, f.res, f.err = out, res, err
	close(f.done)
}

// submission pairs a pending command with its future (nil for scheduler
// pads).
type submission[E comparable] struct {
	cmd []E
	fut *Future[E]
}

// Client is the submission front of an open cluster. Submit may be called
// from any number of goroutines; the cluster itself must not be driven
// through Run/ExecuteRound/etc. while a client is open (the scheduler owns
// it).
type Client[E comparable] struct {
	c        *Cluster[E]
	k        int
	cmdLen   int
	batch    int
	pad      []E
	determ   bool
	queues   []chan *submission[E]
	notify   chan struct{} // eager mode: "something was enqueued"
	quit     chan struct{} // closed by Close: stop admission, start drain
	done     chan struct{} // closed when the scheduler exits
	inflight sync.WaitGroup

	mu       sync.Mutex
	logCond  *sync.Cond
	closed   bool
	finished bool // scheduler exited and the log is final
	runErr   error
	// The Results stream: futures are logged only once a consumer exists
	// (stream), and yielded entries are released immediately, so retention
	// is bounded by consumer lag — a client whose futures are tracked by
	// its submitters alone retains nothing.
	stream bool
	log    []*Future[E] // admitted, not-yet-yielded futures, in admission order
}

// Open starts serving the cluster: it returns a Client accepting
// per-command submissions and spawns the admission scheduler that owns the
// cluster until Close. Only one client may be open at a time.
func (c *Cluster[E]) Open(opts ...ClientOption) (*Client[E], error) {
	c.clientMu.Lock()
	if c.clientOpen {
		c.clientMu.Unlock()
		return nil, fmt.Errorf("csm: Open: %w", ErrClientOpen)
	}
	c.clientOpen = true
	c.clientMu.Unlock()
	release := func() {
		c.clientMu.Lock()
		c.clientOpen = false
		c.clientMu.Unlock()
	}
	s := clientSettings{queueDepth: DefaultSubmitQueueDepth}
	for _, opt := range opts {
		if opt == nil {
			release()
			return nil, fmt.Errorf("csm: Open: nil ClientOption")
		}
		if err := opt(&s); err != nil {
			release()
			return nil, fmt.Errorf("csm: Open: %w", err)
		}
	}
	cl := &Client[E]{
		c:      c,
		k:      c.cfg.K,
		cmdLen: c.tr.CmdLen(),
		batch:  c.batchSize(),
		pad:    field.ZeroVec(c.cfg.BaseField, c.tr.CmdLen()),
		determ: s.deterministic,
		queues: make([]chan *submission[E], c.cfg.K),
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	cl.logCond = sync.NewCond(&cl.mu)
	for k := range cl.queues {
		cl.queues[k] = make(chan *submission[E], s.queueDepth)
	}
	go cl.scheduler()
	return cl, nil
}

// Submit enqueues cmd for the given machine and returns a Future that
// resolves with that machine's decoded output once the command's round
// has executed. Submit blocks while the machine's queue is full
// (backpressure), honouring ctx; it fails with ErrClientClosed after
// Close, and with the scheduler's sticky error (also matching
// ErrClientClosed) once a run has failed.
func (cl *Client[E]) Submit(ctx context.Context, machine int, cmd []E) (*Future[E], error) {
	if machine < 0 || machine >= cl.k {
		return nil, fmt.Errorf("csm: Submit: machine %d out of range [0,%d)", machine, cl.k)
	}
	if len(cmd) != cl.cmdLen {
		return nil, fmt.Errorf("csm: Submit: machine %d: command length %d, want %d", machine, len(cmd), cl.cmdLen)
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClientClosed
	}
	if err := cl.runErr; err != nil {
		cl.mu.Unlock()
		return nil, fmt.Errorf("%w: a run failed: %w", ErrClientClosed, err)
	}
	// The in-flight count lets the drain sequence know when no Submit can
	// still be enqueueing; registering under the same lock as the closed
	// check keeps Add from racing the drain's Wait.
	cl.inflight.Add(1)
	cl.mu.Unlock()
	defer cl.inflight.Done()
	fut := &Future[E]{machine: machine, done: make(chan struct{})}
	sub := &submission[E]{cmd: append([]E(nil), cmd...), fut: fut}
	select {
	case cl.queues[machine] <- sub:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-cl.quit:
		return nil, ErrClientClosed
	}
	select {
	case cl.notify <- struct{}{}:
	default:
	}
	return fut, nil
}

// Results streams the admitted futures in admission order (round-major,
// machine-minor; scheduler pads are not futures and do not appear). The
// iterator blocks waiting for further admissions while the client is open
// and ends once the client has closed and every buffered future has been
// yielded — so a consumer ranges over command outcomes without ever
// materializing a result slice.
//
// The stream starts at the Results call: futures admitted earlier are not
// replayed (and a client that never calls Results retains no futures at
// all — only the submitters' own references keep them alive), so call
// Results before submitting to observe every outcome. Yielded entries are
// released immediately; retention is bounded by consumer lag. The stream
// supports one consumer: concurrent iterators partition it.
func (cl *Client[E]) Results() iter.Seq[*Future[E]] {
	cl.mu.Lock()
	cl.stream = true
	cl.mu.Unlock()
	return func(yield func(*Future[E]) bool) {
		// When the consumer leaves — normally or via break — stop logging
		// and release the buffer, or futures would accumulate unconsumed
		// for the rest of the client's life.
		defer func() {
			cl.mu.Lock()
			cl.stream = false
			cl.log = nil
			cl.mu.Unlock()
		}()
		for {
			cl.mu.Lock()
			for len(cl.log) == 0 && !cl.finished {
				cl.logCond.Wait()
			}
			if len(cl.log) == 0 {
				cl.mu.Unlock()
				return
			}
			f := cl.log[0]
			cl.log[0] = nil // release: the backing array must not pin it
			cl.log = cl.log[1:]
			cl.mu.Unlock()
			if !yield(f) {
				return
			}
		}
	}
}

// Close stops admission, drains every pending submission (padding the
// final partial rounds and running the final partial batch), resolves all
// outstanding futures, releases the cluster, and returns the scheduler's
// first run error, if any. Close is idempotent; Submit fails with
// ErrClientClosed afterwards.
func (cl *Client[E]) Close() error {
	cl.mu.Lock()
	already := cl.closed
	cl.closed = true
	cl.mu.Unlock()
	if !already {
		close(cl.quit)
	}
	<-cl.done
	cl.mu.Lock()
	first := !cl.finished
	if first {
		cl.finished = true
		cl.logCond.Broadcast()
	}
	err := cl.runErr
	cl.mu.Unlock()
	if first {
		cl.c.clientMu.Lock()
		cl.c.clientOpen = false
		cl.c.clientMu.Unlock()
	}
	return err
}

// Err reports the scheduler's sticky error: the first run failure, or nil.
func (cl *Client[E]) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.runErr
}

// scheduler is the admission loop: it assembles rounds from the queues,
// groups them into consensus batches, and drives the cluster. It is the
// only goroutine touching the cluster between Open and Close.
func (cl *Client[E]) scheduler() {
	defer close(cl.done)
	var chunk [][][]E
	var futs [][]*Future[E]
	flush := func() {
		if len(chunk) > 0 {
			cl.runChunk(chunk, futs)
			chunk, futs = nil, nil
		}
	}
	draining := false
	for {
		cmds, roundFuts, formed := cl.nextRound(&draining)
		if !formed {
			flush()
			if draining {
				return
			}
			select {
			case <-cl.notify:
			case <-cl.quit:
				cl.beginDrain(&draining)
			}
			continue
		}
		chunk = append(chunk, cmds)
		futs = append(futs, roundFuts)
		if len(chunk) >= cl.batch {
			flush()
			continue
		}
		if !cl.determ {
			// Eager batching: only what is already pending coalesces into
			// one consensus batch — never wait for future submissions.
			if !cl.anyPending() {
				flush()
			}
		}
	}
}

// beginDrain transitions the scheduler into drain mode: quit is already
// closed, so after every in-flight Submit has either enqueued or aborted,
// the queues hold the final set of submissions.
func (cl *Client[E]) beginDrain(draining *bool) {
	if !*draining {
		*draining = true
		cl.inflight.Wait()
	}
}

// anyPending reports whether any machine has a queued submission.
func (cl *Client[E]) anyPending() bool {
	for _, q := range cl.queues {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// nextRound assembles one round. In deterministic mode (before draining)
// it blocks until every machine has a pending command; otherwise it takes
// whatever is pending right now. Machines without a submission are padded.
// formed is false when nothing at all was pending (no round is admitted).
func (cl *Client[E]) nextRound(draining *bool) (cmds [][]E, futs []*Future[E], formed bool) {
	subs := make([]*submission[E], cl.k)
	for k := 0; k < cl.k; k++ {
		if cl.determ && !*draining {
			select {
			case subs[k] = <-cl.queues[k]:
				formed = true
				continue
			case <-cl.quit:
				cl.beginDrain(draining)
				// fall through to the non-blocking attempt
			}
		}
		select {
		case subs[k] = <-cl.queues[k]:
			formed = true
		default:
		}
	}
	if !formed {
		return nil, nil, false
	}
	cmds = make([][]E, cl.k)
	futs = make([]*Future[E], cl.k)
	cl.mu.Lock()
	for k, sub := range subs {
		if sub == nil {
			cmds[k] = cl.pad
			continue
		}
		cmds[k] = sub.cmd
		futs[k] = sub.fut
		if cl.stream {
			cl.log = append(cl.log, sub.fut)
		}
	}
	cl.logCond.Broadcast()
	cl.mu.Unlock()
	return cmds, futs, true
}

// runChunk executes one consensus batch worth of admitted rounds and
// resolves the rounds' futures. The chunk goes through Run, so the
// cluster's configured engine applies — including the pipelined one when
// Config.Pipeline is set. A chunk is exactly one consensus instance, so a
// Byzantine leader skips it atomically (every report carries Skipped);
// the scheduler then retries the chunk under the next instances' rotated
// leaders, so every admitted command is eventually executed (Section 2.1,
// Liveness), failing with ErrRoundLimit after a full rotation. After a run error the client is sticky-failed: the unexecuted
// rounds' futures resolve with the error, as does everything admitted
// afterwards.
func (cl *Client[E]) runChunk(chunk [][][]E, futs [][]*Future[E]) {
	if err := cl.Err(); err != nil {
		cl.resolveFrom(futs, 0, nil, err)
		return
	}
	for attempts := 0; ; attempts++ {
		results, err := cl.c.Run(chunk)
		if err != nil {
			for i, res := range results {
				cl.resolveRound(futs[i], res)
			}
			cl.fail(err)
			cl.resolveFrom(futs, len(results), nil, err)
			return
		}
		if !results[0].Skipped {
			for i, res := range results {
				cl.resolveRound(futs[i], res)
			}
			return
		}
		if attempts+1 >= cl.c.cfg.N { // a full leader rotation
			err := fmt.Errorf("%w: chunk skipped by %d consecutive leaders", ErrRoundLimit, attempts+1)
			cl.fail(err)
			cl.resolveFrom(futs, 0, nil, err)
			return
		}
	}
}

// resolveRound resolves one admitted round's futures from its report.
func (cl *Client[E]) resolveRound(futs []*Future[E], res *RoundResult[E]) {
	for k, fut := range futs {
		if fut == nil {
			continue
		}
		out := res.Outputs[k]
		if out == nil {
			fut.resolve(nil, res, fmt.Errorf("%w: machine %d gathered no b+1 matching replies", ErrQuorumUnreachable, k))
			continue
		}
		fut.resolve(out, res, nil)
	}
}

// resolveFrom resolves every future from round index `from` on with err.
func (cl *Client[E]) resolveFrom(futs [][]*Future[E], from int, res *RoundResult[E], err error) {
	for _, roundFuts := range futs[from:] {
		for _, fut := range roundFuts {
			if fut != nil {
				fut.resolve(nil, res, err)
			}
		}
	}
}

// fail records the scheduler's first run error.
func (cl *Client[E]) fail(err error) {
	cl.mu.Lock()
	if cl.runErr == nil {
		cl.runErr = err
	}
	cl.mu.Unlock()
}
