package csm

import (
	"slices"

	"codedsm/internal/pool"
	"codedsm/internal/transport"
)

// The parallel execution engine fans a round's node-level work across
// worker goroutines, as many as GOMAXPROCS (pool.Run), while keeping the
// simulation bit-identical to the sequential path. The per-node work is
// the stepCore every node embeds (step.go — the same core a NodeProcess
// runs); this file only schedules it. The round is split into phases by
// what they touch:
//
//   - command encode (parallel): stepCore.encodeCommands is a pure
//     function of the node's coefficients and the agreed batch, flattened
//     once so one K-term LinCombAccVec per node covers every micro-step.
//   - compute (parallel): stepCore.apply, the coded transition
//     g_i = f(S̃_i, X̃_i), is a pure function of the node's state and its
//     coded command slice; each result lands in the node's own apply
//     buffer, indexed by node in the cluster's result table.
//   - broadcast (sequential): each node's result, or its Byzantine lie
//     drawn from the cluster RNG into the node's lie buffer, is encoded
//     into the node's payload buffer and enqueued on the driving
//     goroutine in node order (node.sendResult). An enqueue copies the
//     payload and records it under the network's lock, so workers would
//     only contend for it.
//   - collect + decode (parallel): the step's results live in one
//     sender-indexed row table, the cluster's (Cluster.shared): each
//     sender's row is written once per step, when it sends
//     (shareResult), and read in place by every node that receives it.
//     Each tick the driving goroutine steps the network and parses each
//     delivered envelope once, for all its recipients (parseResults),
//     comparing it with its sender's row; then each honest node still
//     waiting marks the senders whose results reach it (node.collect) and,
//     once it holds enough, decodes (stepCore.absorb) into its buffer of
//     the step's outcome, as one task that writes only that node's core
//     and buffer. Only a result that differs from its sender's row (an
//     equivocation, say) is copied, into the recipient's own row. Nothing
//     writes a row a node may read until the next step opens, so when a
//     node reads cannot matter.
//   - client/audit (sequential or pipelined): the Byzantine replies are
//     drawn from the cluster RNG on the driving goroutine into the step's
//     outcome; the tally itself may run on the background client stage.
//     The ownership rule makes the overlap safe at any Pipeline depth: an
//     outcome, decode buffers and all, returns to the cluster's free list
//     only after the stage has tallied its step (releaseOutcome), so a
//     step the driver runs ahead decodes into another outcome's buffers,
//     and the round's report copies the outputs it accepts instead of
//     pointing into a decode.
//
// Shared structures reached from worker goroutines are safe by
// construction: field.Counting uses atomic counters, charged once per
// kernel call (they commute, so op totals are also identical), lcc.Code
// guards its lazy RS-code cache with a mutex, and poly rings/trees are
// immutable after construction.

// Parallelism reports the worker count rounds execute with now:
// GOMAXPROCS, capped at the cluster size. Nothing else sets it, and rounds
// are bit-identical at every value.
func (c *Cluster[E]) Parallelism() int { return pool.Workers(c.cfg.N) }

// encodeBatchCommands Lagrange-encodes the agreed batch once per node:
// the batch is flattened once, and every live node's core encodes its
// coded commands for all micro-steps from the shared flat rows.
func (c *Cluster[E]) encodeBatchCommands(steps [][][]E) error {
	flat := flattenBatch(steps, c.tr.CmdLen())
	return pool.Run(len(c.nodes), func(i int) error {
		n := c.nodes[i]
		if n.behavior == Crashed || n.behavior == Recovering {
			return nil // down nodes hold no share and encode nothing
		}
		n.encodeCommands(flat)
		return nil
	})
}

// computeAllResults runs the compute phase: every node's true coded result
// for the batch's micro-th step, in parallel, index-aligned with c.nodes
// (nil for a down node). The table is the cluster's and each result its
// node's apply buffer, both valid until the next step.
func (c *Cluster[E]) computeAllResults(micro int) ([][]E, error) {
	if len(c.results) != len(c.nodes) {
		c.results = make([][]E, len(c.nodes))
	}
	results := c.results
	clear(results)
	err := pool.Run(len(c.nodes), func(i int) error {
		n := c.nodes[i]
		if n.behavior == Crashed || n.behavior == Recovering {
			return nil // no state, no compute; sendResult sends nothing
		}
		r, err := n.apply(micro)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// collectAndDecode runs one tick of the collect/decode loop for the
// pending honest nodes: parse the tick's results once, then one task per
// node takes the ones addressed to it, and decodes into its buffer of the
// step's outcome once enough have arrived (tryDecode returns at once for
// a node below the threshold). It reports whether every one of them now
// holds a decode. Every node is attempted even if one fails — a parallel
// pool races ahead of an error anyway, so the sequential path does the
// same and the cluster is left in an identical state for any worker
// count, error or not; the lowest-index error is reported.
func (c *Cluster[E]) collectAndDecode(o *stepOutcome[E], pending []*node[E], force bool, need int) (bool, error) {
	tab := c.parseResults()
	if cap(c.oks) < len(pending) {
		c.oks, c.errs = make([]bool, len(pending)), make([]error, len(pending))
	}
	oks, errs := c.oks[:len(pending)], c.errs[:len(pending)]
	_ = pool.Run(len(pending), func(i int) error {
		n := pending[i]
		n.collect(tab)
		oks[i], errs[i] = n.tryDecode(force, need, &o.bufs[n.id])
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	return !slices.Contains(oks, false), nil
}

// shareResult opens sender from's row of the step's table with the result
// it sends this step (the one its own decode counts), on the driving
// goroutine before anything is delivered: a sender's shared row is the
// one parseResults compares that sender's envelopes with.
func (c *Cluster[E]) shareResult(from int, result []E) {
	copy(c.shared[from], result)
	c.sharedSet[from] = true
}

// parsedResult is one envelope of the current network round, parsed once
// for all its recipients: its sender, its recipients (nil: every node but
// the sender, as Network.Envelopes yields them), whether the accept rule
// took it, and whether its content differs from the sender's shared row,
// in which case row holds it.
type parsedResult[E comparable] struct {
	from int
	to   []transport.NodeID
	ok   bool
	own  bool
	row  []E
}

// parsedTick is one network round as parseResults leaves it: every
// envelope, parsed (results), and whether each one the accept rule took
// is a broadcast to every other node equal to its sender's shared row —
// a synchronous round's tick — in which case senders marks, and count
// counts, their senders.
type parsedTick[E comparable] struct {
	results   []parsedResult[E]
	broadcast bool
	senders   []bool
	count     int
}

// parseResults applies the accept rule (acceptResult) once to each
// envelope the current network round delivers, in Step's order, and
// returns the tick, valid until the next call. An accepted result from a
// sender whose shared row is not open yet is parsed into that row; any
// other is parsed into the entry's scratch row and compared with it, and
// a shared row is never rewritten within a step. The tick and its rows
// are the cluster's, reused from tick to tick. It runs on the driving
// goroutine, before any node reads the tick.
func (c *Cluster[E]) parseResults() *parsedTick[E] {
	f, l := c.tr.Field(), c.tr.ResultLen()
	hdr := resultHeader(c.round, clusterTag, l)
	t := &c.tick
	if len(t.senders) != c.cfg.N {
		t.senders = make([]bool, c.cfg.N)
	}
	clear(t.senders)
	t.broadcast, t.count = true, 0
	t.results = t.results[:cap(t.results)] // every entry a larger tick made
	count := 0
	for m, to := range c.net.Envelopes() {
		if count == len(t.results) {
			t.results = append(t.results, parsedResult[E]{})
			t.results = t.results[:cap(t.results)]
		}
		r := &t.results[count]
		if r.row == nil {
			r.row = make([]E, l)
		}
		count++
		var opened bool
		r.from, r.ok = acceptResult(f, c.cfg.N, hdr, m, func(from int) []E {
			if opened = !c.sharedSet[from]; opened {
				return c.shared[from]
			}
			return r.row
		})
		r.to, r.own = to, false
		if !r.ok {
			continue
		}
		c.sharedSet[r.from] = true
		r.own = !opened && !slices.Equal(r.row, c.shared[r.from])
		if r.own || r.to != nil {
			t.broadcast = false
		} else if !t.senders[r.from] {
			t.senders[r.from] = true
			t.count++
		}
	}
	t.results = t.results[:count]
	return t
}

// collect takes, in envelope order, each result of t that reaches n and
// that the accept rule took: what ingest over n's own deliveries parses,
// without parsing it again. A result equal to its sender's shared row is
// only marked received, and n reads it there; one that differs is copied
// into n's own row. A later copy from the same sender overwrites. When n
// holds only its own result, reads every row shared and is among a
// broadcast tick's senders, the tick is one copy of its senders.
func (n *node[E]) collect(t *parsedTick[E]) {
	if t.broadcast && t.senders[n.id] && n.owned == 0 && n.receivedCount == 1 && n.got[n.id] {
		copy(n.got, t.senders)
		n.receivedCount = t.count
		return
	}
	for i := range t.results {
		r := &t.results[i]
		if !r.ok {
			continue
		}
		if r.to == nil {
			if r.from == n.id {
				continue
			}
		} else if _, ok := slices.BinarySearch(r.to, transport.NodeID(n.id)); !ok {
			continue
		}
		if r.own {
			copy(n.ownRow(r.from), r.row)
		}
		n.setOwn(r.from, r.own)
		n.markReceived(r.from)
	}
}
