package csm

import (
	"cmp"
	"slices"

	"codedsm/internal/transport"
)

// A simulated Cluster runs a round's node-level work on the driving
// goroutine, node by node in id order: a node's steady step, a few hundred
// counted field operations, costs less than handing it to another
// goroutine. The per-node work is the stepCore every node embeds (step.go,
// the core a NodeProcess runs too); this file orders it. A step encodes
// each live node's coded commands, computes each one's coded result into
// its apply buffer, and broadcasts each result or lie in node order
// (node.sendResult). Each sender's row of the step's table
// (Cluster.shared) is written once, when it sends (shareResult); each tick
// parses every delivered envelope once for all its recipients
// (parseResults), and each waiting honest node marks the senders that
// reach it (node.collect) and decodes, reading the rows in place. Only a
// result that differs from its sender's row is copied, into the
// recipient's own row. The client tally may run on the pipelined client
// stage, the one other goroutine a Cluster runs: an outcome returns to
// the free list only after the stage has tallied it (releaseOutcome).

// Parallelism reports the number of goroutines a round's node-level work
// runs on: 1, the driving goroutine, whatever GOMAXPROCS is.
func (c *Cluster[E]) Parallelism() int { return 1 }

// encodeBatchCommands Lagrange-encodes the agreed batch once per node:
// the batch is flattened once, and every live node's core encodes its
// coded commands for all micro-steps from the shared flat rows.
func (c *Cluster[E]) encodeBatchCommands(steps [][][]E) {
	flat := flattenBatch(steps, c.tr.CmdLen())
	for _, n := range c.nodes {
		if n.behavior != Crashed && n.behavior != Recovering {
			n.encodeCommands(flat) // down nodes hold no share and encode nothing
		}
	}
}

// computeAllResults runs the compute phase: every node's true coded result
// for the batch's micro-th step, index-aligned with c.nodes (nil for a
// down node). The table is the cluster's and each result its node's apply
// buffer, both valid until the next step.
func (c *Cluster[E]) computeAllResults(micro int) ([][]E, error) {
	if len(c.results) != len(c.nodes) {
		c.results = make([][]E, len(c.nodes))
	}
	results := c.results
	clear(results)
	for i, n := range c.nodes {
		if n.behavior == Crashed || n.behavior == Recovering {
			continue // no state, no compute; sendResult sends nothing
		}
		r, err := n.apply(micro)
		if err != nil {
			return nil, err
		}
		results[i] = r
	}
	return results, nil
}

// collectAndDecode runs one tick of the collect/decode loop for the
// pending honest nodes: parse the tick's results once, then each node in
// turn takes the ones addressed to it, and decodes into its buffer of the
// step's outcome once enough have arrived (tryDecode returns at once for
// a node below the threshold). It reports whether every one of them now
// holds a decode. A node's failure does not stop the tick: every node is
// attempted, and the first error is reported.
func (c *Cluster[E]) collectAndDecode(o *stepOutcome[E], pending []*node[E], force bool, need int) (bool, error) {
	tab := c.parseResults()
	all := true
	var first error
	for _, n := range pending {
		n.collect(tab)
		ok, err := n.tryDecode(force, need, &o.bufs[n.id])
		all, first = all && ok, cmp.Or(first, err)
	}
	return all && first == nil, first
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
