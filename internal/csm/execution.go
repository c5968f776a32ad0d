package csm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/transport"
)

// stepOutcome carries everything one executed micro-step hands to the
// client stage: the agreed commands (for the oracle advance), the
// pre-drawn Byzantine client replies, and every honest node's decode.
// The driving goroutine writes none of it after handing the outcome off,
// and the outcome returns to the cluster's free list, with the buffers
// its step's nodes decoded into, only once finishStep has tallied the
// step (see nodeDecode). That is what lets the pipelined engine run the
// client stage concurrently with later rounds at any depth.
type stepOutcome[E comparable] struct {
	cmds [][]E
	// liars lists, ascending, the nodes that send the clients pre-drawn
	// garbage instead of their decode's outputs; Cluster.liarReply(o, k, x)
	// is liar x's reply for machine k, a view into replyVals.
	liars     []int
	replyVals []E
	// decodes[i] is node i's decode (nil: none), in bufs[i] unless a
	// delegated step handed the node its worker's.
	decodes []*nodeDecode[E]
	bufs    []nodeDecode[E]
	res     *RoundResult[E]
	skip    bool // consensus decided garbage: nothing to tally
}

// executeBatch is the round engine under ExecuteRound and Run: one
// consensus instance over len(batch) rounds, then one execution
// micro-step per round. With a nil stage the client phase completes
// inline before the next micro-step starts; otherwise each outcome is
// enqueued on the stage and only the execution phases run here. The
// returned slice covers exactly the rounds whose execution completed (all
// of them when err is nil).
func (c *Cluster[E]) executeBatch(batch [][][]E, stage *clientStage[E]) ([]*RoundResult[E], error) {
	if err := validateBatchShape(batch, c.cfg.K, c.tr.CmdLen()); err != nil {
		return nil, err
	}
	steps := len(batch)
	// Churn boundary: membership and adversary changes scheduled for the
	// rounds this instance covers apply before its consensus phase, on the
	// driving goroutine — the instance is the atomic unit of agreement, so
	// the fault pattern is static within it.
	if err := c.applyChurn(c.round, steps); err != nil {
		return nil, err
	}
	agreed, ticksConsensus, err := c.runConsensus(batch)
	if err != nil {
		return nil, err
	}
	if agreed == nil {
		// Byzantine leader: the whole batch is skipped (commands stay
		// pending with the clients), consensus ticks charged to its first
		// round.
		out := make([]*RoundResult[E], steps)
		for j := range out {
			out[j] = &RoundResult[E]{Skipped: true, Correct: true}
			if j == 0 {
				out[j].Ticks = ticksConsensus
			}
			c.round++
			if stage != nil {
				stage.enqueue(&stepOutcome[E]{res: out[j], skip: true})
			}
		}
		return out, nil
	}
	// Who decodes this batch's steps: every node, off one amortized
	// Lagrange encode of all the micro-steps' commands — or the rotating
	// worker of Section 6.2, which encodes each step's commands itself.
	step := c.runExecutionStep
	if c.cfg.Delegated {
		step = func(micro int) (*stepOutcome[E], error) { return c.runExecutionDelegated(agreed[micro]) }
	} else {
		c.encodeBatchCommands(agreed)
	}
	out := make([]*RoundResult[E], 0, steps)
	for j := 0; j < steps; j++ {
		outcome, err := step(j)
		if err != nil {
			return out, err
		}
		outcome.cmds = agreed[j]
		if j == 0 {
			outcome.res.Ticks += ticksConsensus
		}
		res := outcome.res // finishStep releases the outcome itself
		if stage != nil {
			c.round++
			out = append(out, res)
			stage.enqueue(outcome)
			continue
		}
		if err := c.finishStep(outcome); err != nil {
			return out, err
		}
		c.round++
		out = append(out, res)
	}
	return out, nil
}

// runExecutionStep drives the coded execution phase for one micro-step of
// the current batch: compute (parallel), broadcast (in node order on the
// driving goroutine, which draws the liars' randomness), then the
// lock-step loop: the driving goroutine steps the network, and each node
// still waiting collects and decodes on the workers. On return every
// honest node has decoded and re-encoded its next coded state — the
// happens-before boundary the next micro-step's compute phase relies on —
// and the outcome is ready for the client stage.
func (c *Cluster[E]) runExecutionStep(micro int) (*stepOutcome[E], error) {
	if err := c.broadcastResults(micro); err != nil {
		return nil, err
	}
	o := c.takeOutcome()
	ticks := 0
	deadline := 1 // synchronous networks: results arrive in exactly one tick
	need := c.decodeNeed()
	for {
		c.net.Step()
		ticks++
		c.pending = c.pending[:0]
		for _, n := range c.nodes {
			if n.behavior == Honest && n.decoded == nil {
				c.pending = append(c.pending, n)
			}
		}
		force := c.cfg.Mode == transport.PartialSync || ticks >= deadline
		allDecoded, err := c.collectAndDecode(o, c.pending, force, need)
		if err != nil {
			return nil, err
		}
		if allDecoded {
			break
		}
		if ticks >= c.maxTicks {
			return nil, fmt.Errorf("%w (after %d ticks)", ErrRoundStuck, ticks)
		}
	}
	return c.closeOutcome(o, ticks), nil
}

// broadcastResults opens a step the way both execution phases do: every
// live node computes its coded result from the coded command in its batch
// scratch (parallel), then, the shared table voided, transmits it, in
// node order.
func (c *Cluster[E]) broadcastResults(micro int) error {
	results, err := c.computeAllResults(micro)
	if err != nil {
		return err
	}
	clear(c.sharedSet)
	for i, n := range c.nodes {
		n.resetStep()
		if err := n.sendResult(results[i]); err != nil {
			return err
		}
	}
	return nil
}

// takeOutcome takes the oldest outcome off the cluster's free list for
// the step about to decode into its buffers. The list is pre-filled with
// the most outcomes that can be out at once (see Cluster.outcomes), so it
// is empty only after a failed client stage dropped some.
func (c *Cluster[E]) takeOutcome() *stepOutcome[E] {
	var o *stepOutcome[E]
	select {
	case o = <-c.outcomes:
	default:
		o = new(stepOutcome[E])
	}
	if len(o.bufs) != len(c.nodes) {
		o.bufs = make([]nodeDecode[E], len(c.nodes))
	}
	return o
}

// closeOutcome closes a step whose honest nodes hold their decodes: the
// Byzantine client replies are drawn and the decodes collected into o
// here, on the driving goroutine, for whichever goroutine runs finishStep.
func (c *Cluster[E]) closeOutcome(o *stepOutcome[E], ticks int) *stepOutcome[E] {
	c.drawClientReplies(o)
	o.decodes = o.decodes[:0]
	for _, n := range c.nodes {
		o.decodes = append(o.decodes, n.decoded) // nil for Byzantine or undecoded nodes
	}
	o.res = &RoundResult[E]{Ticks: ticks}
	return o
}

// releaseOutcome returns a tallied outcome, decode buffers and all, to the
// back of the cluster's free list; nothing may read it afterwards.
func (c *Cluster[E]) releaseOutcome(o *stepOutcome[E]) {
	clear(o.decodes)
	o.cmds, o.res = nil, nil
	select {
	case c.outcomes <- o:
	default: // full: an outcome made while a failed stage held others
	}
}

// decodeNeed is the result count a node waits for before decoding. In the
// synchronous model every live, non-silent node's result arrives within
// the one-tick deadline, so nodes expect exactly N minus the current
// erasure count — the fault budget guarantees whatever arrives decodes
// (rows - dim = N - s - dim ≥ 2e + 1 whenever 2e + s ≤ 2b, see the repair
// package comment). In partial synchrony delays are adversarial, so nodes
// wait for the classic N-b threshold; the budget caps non-sending nodes
// at b there, keeping it reachable.
func (c *Cluster[E]) decodeNeed() int {
	if c.cfg.Mode != transport.Sync {
		return c.cfg.N - c.cfg.MaxFaults
	}
	need := c.cfg.N
	for _, n := range c.nodes {
		if sendsNothing(n.behavior) {
			need--
		}
	}
	return need
}

// finishStep runs the sequential tail of a micro-step: advance the
// ground-truth oracle, run the client tally/audit and release the
// outcome. In pipelined runs this executes on the client-stage goroutine.
func (c *Cluster[E]) finishStep(o *stepOutcome[E]) error {
	stateLen := c.oracleTr.StateLen()
	for k, row := range c.oracle {
		if err := c.oracleTr.ApplyResultInto(row, c.oracleArgs, row[:stateLen], o.cmds[k]); err != nil {
			return err
		}
	}
	c.tallied++
	c.clientPhase(o)
	c.releaseOutcome(o)
	return nil
}

// drawClientReplies draws the Byzantine nodes' garbage client replies for
// one round into o, in the exact (machine-major, node-minor) order the
// sequential client phase consumed the cluster RNG. Only active liars
// draw: an honest node replies with its decode, and a crashed or
// recovering one sends the clients nothing at all. Pre-drawing keeps
// pipelined runs on the same random stream as sequential ones.
func (c *Cluster[E]) drawClientReplies(o *stepOutcome[E]) {
	o.liars = o.liars[:0]
	for i, n := range c.nodes {
		if b := n.behavior; b != Honest && b != Crashed && b != Recovering {
			o.liars = append(o.liars, i)
		}
	}
	size := c.cfg.K * len(o.liars) * c.tr.OutLen()
	o.replyVals = slices.Grow(o.replyVals[:0], size)[:size]
	for k := range c.cfg.K {
		for x := range o.liars {
			field.RandVecInto(c.cfg.BaseField, c.rng, c.liarReply(o, k, x))
		}
	}
}

// liarReply is liar x's (o.liars[x]'s) pre-drawn reply for machine k.
func (c *Cluster[E]) liarReply(o *stepOutcome[E], k, x int) []E {
	l, j := c.tr.OutLen(), k*len(o.liars)+x
	return o.replyVals[j*l : (j+1)*l : (j+1)*l]
}

// clientPhase simulates the M clients collecting per-node replies: a client
// accepts an output once b+1 nodes report the same value (Table 2, output
// delivery: 2b+1 <= N). Byzantine nodes report the pre-drawn garbage.
// Each machine's tally is a short list of distinct replies; the decodes
// groupDecodes groups count once, with the group's size (acceptReply does
// not depend on the tally's order). A group of at least b+1 that
// outnumbers every other reply together wins whatever they say, so its
// output is taken without tallying them. The result is then audited
// against the oracle, which finishStep has advanced past the round. The
// accepted outputs are copied into one fresh allocation: the round's
// report outlives the decode buffers they were read from.
func (c *Cluster[E]) clientPhase(o *stepOutcome[E]) {
	f, l, stateLen := c.cfg.BaseField, c.tr.OutLen(), c.tr.StateLen()
	res := o.res
	res.Outputs = make([][]E, c.cfg.K)
	flat := make([]E, c.cfg.K*l)
	res.Correct = true
	ref, group := c.groupDecodes(o)
	majority := group >= c.cfg.MaxFaults+1 && group > len(o.decodes)-group
	for k := 0; k < c.cfg.K; k++ {
		c.tally = c.tally[:0]
		if ref != nil {
			c.tally = append(c.tally, replyCount[E]{value: ref.output(k), count: group})
		}
		if !majority {
			c.tallyOthers(o, k)
		}
		if out := acceptReply(f, c.tally, c.cfg.MaxFaults+1); out != nil {
			res.Outputs[k] = flat[k*l : (k+1)*l : (k+1)*l]
			copy(res.Outputs[k], out)
		}
		if res.Outputs[k] == nil || !slices.Equal(res.Outputs[k], c.oracle[k][stateLen:]) {
			res.Correct = false
		}
	}
	// Consistency audit: every honest node's decoded next states must
	// match the oracle; a group's are its first decode's.
	faulty := []int{}
	for i, dec := range o.decodes {
		if dec == nil {
			continue
		}
		if !slices.Equal(faulty, dec.FaultyNodes) {
			faulty = ints.UnionSorted(faulty, dec.FaultyNodes)
		}
		if c.grouped[i] && dec != ref {
			continue
		}
		for k := 0; k < c.cfg.K; k++ {
			if !slices.Equal(dec.nextState(k), c.oracle[k][:stateLen]) {
				res.Correct = false
			}
		}
	}
	res.FaultyDetected = faulty
}

// tallyOthers adds machine k's replies outside the honest group to
// c.tally: the liars' pre-drawn garbage and the ungrouped decodes.
func (c *Cluster[E]) tallyOthers(o *stepOutcome[E], k int) {
	x := 0 // the next liar
	for i, dec := range o.decodes {
		var reply []E
		if x < len(o.liars) && o.liars[x] == i {
			reply = c.liarReply(o, k, x)
			x++
		} else if dec != nil && !c.grouped[i] {
			reply = dec.output(k)
		}
		if reply != nil {
			c.tally = countReply(c.tally, reply)
		}
	}
}

// groupDecodes marks in c.grouped the honest decodes whose flat result
// block equals the first one's (all of them, in an honest step), and
// returns that first decode and the group's size; a decode without a flat
// block joins no group but its own.
func (c *Cluster[E]) groupDecodes(o *stepOutcome[E]) (ref *nodeDecode[E], size int) {
	c.grouped = slices.Grow(c.grouped[:0], len(o.decodes))[:len(o.decodes)]
	clear(c.grouped)
	x := 0 // the next liar
	for i, dec := range o.decodes {
		if x < len(o.liars) && o.liars[x] == i {
			x++
			continue
		}
		if dec == nil {
			continue
		}
		if ref == nil {
			ref = dec
		} else if ref.flat == nil || !slices.Equal(dec.flat, ref.flat) {
			continue
		}
		c.grouped[i] = true
		size++
	}
	return ref, size
}

// replyCount is a distinct reply a client heard and how many nodes sent it.
type replyCount[E comparable] struct {
	value []E
	count int
}

// countReply adds one node's reply to a machine's tally.
func countReply[E comparable](tally []replyCount[E], reply []E) []replyCount[E] {
	for i := range tally {
		if slices.Equal(tally[i].value, reply) {
			tally[i].count++
			return tally
		}
	}
	return append(tally, replyCount[E]{value: reply, count: 1})
}

// acceptReply picks the client-accepted output under the b+1
// matching-replies rule: the reply with the highest count of at least
// threshold, nil if none reaches it. Two replies can tie there (b+1 each
// when 2b+2 <= N); the smaller canonical wire key wins, built only for
// tied replies, so the winner never depends on the order of the tally.
func acceptReply[E comparable](f field.Field[E], tally []replyCount[E], threshold int) []E {
	key := func(v []E) (b []byte) {
		for _, e := range v {
			b = binary.LittleEndian.AppendUint64(b, f.Uint64(e))
		}
		return b
	}
	best := replyCount[E]{count: threshold - 1}
	for _, t := range tally {
		if t.count > best.count || t.count == best.count && best.value != nil && bytes.Compare(key(t.value), key(best.value)) < 0 {
			best = t
		}
	}
	return best.value
}

// batchRoundError marks a pre-execution batch failure attributable to one
// specific round of the batch, identified by its offset within the batch.
// Run translates the offset into the workload round index.
type batchRoundError struct {
	offset int
	err    error
}

func (e *batchRoundError) Error() string {
	return fmt.Sprintf("csm: batch round %d: %v", e.offset, e.err)
}
func (e *batchRoundError) Unwrap() error { return e.err }

// batchSize returns the effective rounds-per-consensus-instance.
func (c *Cluster[E]) batchSize() int {
	if c.cfg.BatchSize > 1 {
		return c.cfg.BatchSize
	}
	return 1
}

// BatchSize reports the effective rounds-per-consensus-instance Run
// groups by.
func (c *Cluster[E]) BatchSize() int { return c.batchSize() }

// Run executes a whole workload: rounds[r][k] is machine k's command vector
// in round r. Rounds are grouped into consensus batches of
// Config.BatchSize. With Config.Pipeline > 0 a client stage runs the
// client phase up to Config.Pipeline rounds behind the driving goroutine;
// the reports are bit-identical to the sequential engine's (see the
// package documentation for the happens-before contract that makes the
// overlap safe).
//
// Error contract: on a mid-workload error Run returns the reports of every
// round that fully completed — always a prefix of the workload — together
// with a *BatchError carrying that same prefix and the index of the failed
// round (recover both with errors.As; no string inspection needed).
func (c *Cluster[E]) Run(rounds [][][]E) ([]*RoundResult[E], error) {
	var stage *clientStage[E]
	if c.cfg.Pipeline > 0 {
		stage = newClientStage(c, c.cfg.Pipeline)
	}
	out := make([]*RoundResult[E], 0, len(rounds))
	var cause error
	var base, failed int
	bs := c.batchSize()
	for start := 0; start < len(rounds); start += bs {
		res, err := c.executeBatch(rounds[start:min(start+bs, len(rounds))], stage)
		out = append(out, res...)
		if err != nil {
			cause, base, failed = err, start, start+len(res)
			break
		}
		if stage != nil && stage.failed() != nil {
			break
		}
	}
	if stage != nil {
		completed, stageErr := stage.drain()
		if stageErr != nil {
			// A stage failure happened at round `completed` — before any
			// driver error, which can only strike a later round (the
			// driver runs ahead of the stage). Report the first failure
			// so the error names the round right after the returned prefix.
			cause, base, failed = stageErr, completed, completed
		}
		if completed < len(out) {
			// Keep Round() consistent with the returned prefix, exactly as
			// the sequential engine does when a client phase fails: rounds
			// the driver executed ahead of the failed stage job don't count.
			c.round -= len(out) - completed
			out = out[:completed]
		}
	}
	if cause != nil {
		return out, newBatchError(cause, out, base, failed)
	}
	return out, nil
}

// RandomWorkload generates a reproducible workload: rounds x K command
// vectors of the transition's command length.
func RandomWorkload[E comparable](f field.Field[E], rounds, k, cmdLen int, seed uint64) [][][]E {
	rng := newWorkloadRNG(seed)
	out := make([][][]E, rounds)
	for r := range out {
		out[r] = make([][]E, k)
		for i := range out[r] {
			out[r][i] = field.RandVec(f, rng, cmdLen)
		}
	}
	return out
}
