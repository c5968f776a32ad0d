package csm

import (
	"fmt"
	"slices"

	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/lcc"
	"codedsm/internal/transport"
)

// resultKind tags execution-phase messages.
const resultKind = "csm-result"

// node is one CSM compute node.
type node[E comparable] struct {
	cluster    *Cluster[E]
	id         int
	ep         *transport.Endpoint
	behavior   Behavior
	codedState []E

	// per-step collection state: received is sender-indexed (nil: nothing
	// from that sender yet) and receivedCount its non-nil entries.
	received      [][]E
	receivedCount int
	decoded       *nodeDecode[E]

	// Staged result transmission: planBroadcast draws all Byzantine
	// randomness on the driving goroutine (cluster-RNG order matters) and
	// fills these; transmitResult is then RNG-free, so the signing and
	// enqueueing of the N nodes' results can fan out across workers
	// whenever the network delivery schedule is deterministic.
	txBroadcast []byte   // payload to Broadcast (nil: nothing to broadcast)
	txSends     [][]byte // per-recipient payloads (Equivocate), nil otherwise

	// Primed-decode state: suspects is the sorted union of this node's past
	// decode verdicts, sticky across steps and batches (see absorbVerdict) —
	// it only steers which rows the verified-subset check trusts, so it
	// affects speed, never the result — and primed is the check built for
	// it, reused while layout and suspicion match. primedIdx/primedSusp
	// memoize the exact layout NewPrimed last ran for, so an ineligible
	// layout (primed == nil) is not rebuilt every lock-step tick of a
	// degraded partially synchronous round, while a genuinely new layout
	// still gets its priming attempt.
	suspects   []int
	primed     *lcc.Primed[E]
	primedIdx  []int
	primedSusp []int

	// Round-to-round scratch: steady-state rounds reuse these instead of
	// allocating. cmdScratch holds the node's coded commands for the whole
	// current batch (BatchSize x CmdLen, flat), stateScratch
	// double-buffers the re-encoded coded state (it swaps with codedState
	// each round), and idxScratch/resScratch stage the decode inputs.
	cmdScratch   []E
	stateScratch []E
	idxScratch   []int
	resScratch   [][]E

	// delegated-mode state (Section 6.2)
	dlgCoded [][]E        // worker only: the coded commands it produced
	dlgProof *dlgProofMsg // the proof this node holds for the round
}

// nodeDecode is a node's decoded view of one round. Instances are
// allocated fresh every round and never mutated afterwards, so the
// pipelined client stage can hold them across rounds.
type nodeDecode[E comparable] struct {
	outputs    [][]E // K output vectors
	nextStates [][]E // K next-state vectors
	faulty     []int
}

// lagrangeRowInto accumulates one node's Lagrange encode Σ_k row[k]
// vecs[k] into dst — (re)allocated at the given length when it does not
// match — on the bulk kernels (K ScaleAccVec calls). It returns dst.
// Shared by the simulated node and the multi-process NodeProcess, which
// run the identical encode over different transports.
func lagrangeRowInto[E comparable](bulk field.Bulk[E], zero E, row []E, vecs [][]E, dst []E, length int) []E {
	if len(dst) != length {
		dst = make([]E, length)
	}
	for j := range dst {
		dst[j] = zero
	}
	for k := range vecs {
		bulk.ScaleAccVec(dst, row[k], vecs[k])
	}
	return dst
}

// lagrangeEncodeInto is the node-side wrapper over lagrangeRowInto, on
// the counted kernels and the node's own coefficient row.
func (n *node[E]) lagrangeEncodeInto(dst []E, length int, vecs [][]E) []E {
	c := n.cluster
	return lagrangeRowInto(c.bulk, c.counting.Zero(), c.code.Coeffs()[n.id], vecs, dst, length)
}

// computeResultAt runs the coded execution step for the batch's micro-th
// micro-step: the node's coded command was already encoded into the batch
// scratch, and f is applied on coded state and command. Apply copies its
// inputs, so the scratch never escapes the round.
func (n *node[E]) computeResultAt(micro int) ([]E, error) {
	c := n.cluster
	cmdLen := c.tr.CmdLen()
	cmd := n.cmdScratch[micro*cmdLen : (micro+1)*cmdLen]
	return c.tr.ApplyResult(n.codedState, cmd)
}

// planBroadcast stages the node's (possibly corrupted) result
// transmission, drawing any Byzantine randomness from the cluster RNG —
// this must run on the driving goroutine, in node order.
func (n *node[E]) planBroadcast(result []E) {
	c := n.cluster
	n.txBroadcast = nil
	n.txSends = nil
	switch n.behavior {
	case Silent, Crashed, Recovering:
		// Nothing to transmit: silence is adversarial withholding; a
		// crashed or recovering node computed no result at all (the
		// transport would drop a crashed node's traffic anyway).
	case WrongResult, BadLeader:
		bad := field.RandVec(c.cfg.BaseField, c.rng, len(result))
		n.accept(n.id, bad) // a liar is at least self-consistent
		n.txBroadcast = c.encodeResultPayload(c.round, bad)
	case Equivocate:
		// A different wrong value to every peer. On a no-equivocation
		// (broadcast) network the transport coerces these to the first.
		n.txSends = make([][]byte, c.cfg.N)
		for to := 0; to < c.cfg.N; to++ {
			if to == n.id {
				continue
			}
			bad := field.RandVec(c.cfg.BaseField, c.rng, len(result))
			n.txSends[to] = c.encodeResultPayload(c.round, bad)
		}
		n.accept(n.id, result)
	default:
		n.accept(n.id, result)
		n.txBroadcast = c.encodeResultPayload(c.round, result)
	}
}

// transmitResult signs and enqueues what planBroadcast staged. It is
// RNG-free and touches only this node's endpoint, so distinct nodes may
// transmit concurrently when the network schedule is deterministic.
func (n *node[E]) transmitResult() error {
	if n.txBroadcast != nil {
		return n.ep.Broadcast(resultKind, n.txBroadcast)
	}
	for to, payload := range n.txSends {
		if payload == nil {
			continue
		}
		if err := n.ep.Send(transport.NodeID(to), resultKind, payload); err != nil {
			return err
		}
	}
	return nil
}

// resetStep clears the per-step collection state, reusing the
// sender-indexed slice.
func (n *node[E]) resetStep() {
	if len(n.received) != n.cluster.cfg.N {
		n.received = make([][]E, n.cluster.cfg.N)
	}
	clear(n.received)
	n.receivedCount = 0
	n.decoded = nil
}

// accept records sender from's result for the current step; a repeated
// sender overwrites.
func (n *node[E]) accept(from int, result []E) {
	if n.received[from] == nil {
		n.receivedCount++
	}
	n.received[from] = result
}

// collect ingests result messages for the current round.
func (n *node[E]) collect(msgs []transport.Message) {
	c := n.cluster
	for _, m := range msgs {
		if m.Kind != resultKind {
			continue
		}
		round, result, ok := c.decodeResultPayload(m.Payload)
		if !ok || round != c.round || len(result) != c.tr.ResultLen() || int(m.From) >= len(n.received) {
			continue
		}
		n.accept(int(m.From), result)
	}
}

// tryDecode decodes once enough results are available. Synchronous mode
// decodes whatever arrived after the fixed interval (missing results are
// erasures); partially synchronous mode requires at least N-b results.
// Every decode first tries the node's primed verified-subset check
// (trusted rows chosen clear of the sticky suspects); the full
// noisy-interpolation decoder remains the fallback and the authority on
// anything the check cannot certify.
// need is the step-constant decode threshold (Cluster.decodeNeed),
// computed once per micro-step by the caller.
func (n *node[E]) tryDecode(force bool, need int) (bool, error) {
	c := n.cluster
	if n.receivedCount < need {
		return false, nil
	}
	if !force && n.receivedCount < c.cfg.N {
		// Wait for more stragglers unless the deadline passed.
		return false, nil
	}
	indices, results := n.idxScratch[:0], n.resScratch[:0]
	for idx, res := range n.received {
		if res != nil {
			indices = append(indices, idx)
			results = append(results, res)
		}
	}
	n.idxScratch, n.resScratch = indices, results
	var primed *lcc.Primed[E]
	switch {
	case n.primed != nil && n.primed.Matches(indices, n.suspects):
		primed = n.primed
	case !slices.Equal(n.primedIdx, indices) || !slices.Equal(n.primedSusp, n.suspects):
		p, err := c.code.NewPrimed(indices, n.suspects, c.tr.Degree(), c.cfg.MaxFaults)
		if err != nil {
			return false, fmt.Errorf("csm: node %d priming decode: %w", n.id, err)
		}
		n.primed = p // may be nil: layout ineligible for the fast path
		n.primedIdx = append(n.primedIdx[:0], indices...)
		n.primedSusp = append(n.primedSusp[:0], n.suspects...)
		primed = p
	default:
		// This exact layout was already found ineligible: skip.
	}
	var dec *lcc.DecodeResult[E]
	if primed != nil {
		fast, ok, err := primed.Decode(results, 1)
		if err != nil {
			return false, fmt.Errorf("csm: node %d primed decode: %w", n.id, err)
		}
		if ok {
			dec = fast
		}
	}
	if dec == nil {
		full, err := c.code.DecodeOutputsSubset(indices, results, c.tr.Degree())
		if err != nil {
			return false, fmt.Errorf("csm: node %d decode: %w", n.id, err)
		}
		dec = full
	}
	n.absorbVerdict(dec.FaultyNodes)
	outputs := make([][]E, c.cfg.K)
	nextStates := make([][]E, c.cfg.K)
	for k := 0; k < c.cfg.K; k++ {
		next, out, err := c.tr.SplitResult(dec.Outputs[k])
		if err != nil {
			return false, err
		}
		nextStates[k] = next
		outputs[k] = out
	}
	n.decoded = &nodeDecode[E]{outputs: outputs, nextStates: nextStates, faulty: dec.FaultyNodes}
	// Update the coded state: S̃_i(t+1) = Σ_k c_ik Ŝ_k(t+1), re-encoded into
	// the state double-buffer (the outgoing coded state becomes next round's
	// buffer; nothing else retains it — external readers go through
	// NodeCodedState, which copies).
	newCoded := n.lagrangeEncodeInto(n.stateScratch, c.tr.StateLen(), nextStates)
	n.stateScratch = n.codedState
	n.codedState = newCoded
	return true, nil
}

// absorbVerdict folds one decode's faulty set into the sticky suspects:
// the union of past verdicts, so a persistent or intermittent liar costs
// one full decode when it first lies rather than one per batch. Once the
// union is too broad for NewPrimed to prime a full round on (fewer than
// dim+b unsuspected nodes), older suspicion is dropped and only the
// latest verdict — at most the code's radius, hence primeable — is kept.
func (n *node[E]) absorbVerdict(faulty []int) {
	c := n.cluster
	n.suspects = ints.UnionSorted(n.suspects, faulty)
	if c.cfg.N-len(n.suspects) < c.code.ResultDim(c.tr.Degree())+c.cfg.MaxFaults {
		n.suspects = append(n.suspects[:0], faulty...)
	}
}
