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
//   - collect + decode (parallel): the driving goroutine steps the
//     network and parses each delivered envelope once, for all its
//     recipients (parseResults); then each honest node still waiting
//     copies the accepted results addressed to it into its own core
//     (node.collect) and, once it holds enough, decodes
//     (stepCore.absorb) into its buffer of the step's outcome, as one task
//     that writes only that node's core and buffer. The parsed table is
//     fixed before any task starts, so when a node reads it cannot matter.
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
// node copies the ones addressed to it, and decodes into its buffer of the
// step's outcome once enough have arrived (tryDecode returns at once for
// a node below the threshold). It
// reports whether every one of them now holds a decode. Every node is
// attempted even if one fails — a parallel pool races ahead of an error
// anyway, so the sequential path does the same and the cluster is left in
// an identical state for any worker count, error or not; the lowest-index
// error is reported.
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

// parsedResult is one envelope of the current network round, parsed once
// for all its recipients: its sender, its recipients (nil: every node but
// the sender, as Network.Envelopes yields them), whether the accept rule
// took it, and the parsed row when it did.
type parsedResult[E comparable] struct {
	from int
	to   []transport.NodeID
	ok   bool
	row  []E
}

// parseResults applies the accept rule (acceptResult) once to each
// envelope the current network round delivers, in Step's order, and
// returns the table, valid until the next call. The table and its rows are
// the cluster's, reused from tick to tick. It runs on the driving
// goroutine, before any node reads the table.
func (c *Cluster[E]) parseResults() []parsedResult[E] {
	f, l := c.tr.Field(), c.tr.ResultLen()
	hdr := resultHeader(c.round, clusterTag, l)
	count := 0
	for m, to := range c.net.Envelopes() {
		if count == len(c.parsed) {
			c.parsed = append(c.parsed, parsedResult[E]{row: make([]E, l)})
		}
		r := &c.parsed[count]
		r.from, r.ok = acceptResult(f, c.cfg.N, hdr, m, func(int) []E { return r.row })
		r.to = to
		count++
	}
	return c.parsed[:count]
}

// collect copies into n's receive rows, in envelope order, each result of
// tab that reaches n and that the accept rule took: what ingest over n's
// own deliveries parses, without parsing it again. A later copy from the
// same sender overwrites.
func (n *node[E]) collect(tab []parsedResult[E]) {
	for i := range tab {
		r := &tab[i]
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
		copy(n.recvRow(r.from), r.row)
		n.markReceived(r.from)
	}
}
