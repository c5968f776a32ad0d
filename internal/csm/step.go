package csm

import (
	"fmt"
	"iter"
	"slices"

	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/lcc"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// stepCore is one node's side of the coded execution step (Section 5.2):
// Lagrange-encode the agreed commands, apply f on coded state, collect the
// nodes' results, Reed-Solomon-decode them, split each machine's result
// and re-encode the coded state. It is the only implementation of that
// step: the simulated node embeds one over the cluster's counting field,
// a NodeProcess holds one over its plain field. What differs between the
// engines stays with them — how results travel, and when enough have
// arrived to decode (Cluster.decodeNeed vs. the process engine's
// straggler grace) — so the core has no mode.
type stepCore[E comparable] struct {
	code      *lcc.Code[E]
	tr        *sm.Transition[E]
	bulk      field.Bulk[E]
	zero      E
	id, n     int
	maxFaults int
	row       []E // this node's Lagrange coefficients, code.Coeffs()[id]

	codedState []E

	// per-step collection state: received is sender-indexed (nil: nothing
	// from that sender yet) and receivedCount its non-nil entries. Rows
	// are views into recvBuf, the node's flat N x ResultLen receive
	// buffer, valid until the next resetStep.
	received      [][]E
	receivedCount int
	recvBuf       []E

	// Primed-decode state: suspects is the sorted union of this node's past
	// decode verdicts, sticky across steps and batches (see absorbVerdict) —
	// it only steers which rows the verified-subset check trusts, so it
	// affects speed, never the result — and primed is the check NewPrimed
	// last built, for the received layout primedIdx and the suspects
	// primedSusp. That pair is the cache key: primed (nil when the layout
	// was ineligible) is reused while both match, so an ineligible layout
	// is not re-tried every lock-step tick of a degraded partially
	// synchronous round, while a genuinely new layout still gets its
	// priming attempt.
	suspects   []int
	primed     *lcc.Primed[E]
	primedIdx  []int
	primedSusp []int
	// fallbacks counts the decodes that ran the full decoder: the primed
	// check refused, or the layout was ineligible for one.
	fallbacks int
	// randomized says this node holds a private secret to seed each
	// check it primes (lcc.Primed.Randomize) with; primings counts those
	// checks, so each draws its coefficients from a stream of its own. A
	// core without a secret keeps the exact check.
	randomized bool
	secret     uint64
	primings   uint64

	// Round-to-round scratch: steady-state rounds reuse these instead of
	// allocating. cmdScratch holds the node's coded commands for the whole
	// current batch (BatchSize x CmdLen, flat), stateScratch
	// double-buffers the re-encoded coded state (it swaps with codedState
	// each round), idxScratch/resScratch stage the decode inputs and
	// nextScratch the re-encode's.
	cmdScratch   []E
	stateScratch []E
	idxScratch   []int
	resScratch   [][]E
	nextScratch  [][]E
}

// newStepCore builds node id's core; the caller installs the coded state.
func newStepCore[E comparable](code *lcc.Code[E], tr *sm.Transition[E], bulk field.Bulk[E], id, maxFaults int) stepCore[E] {
	return stepCore[E]{
		code: code, tr: tr, bulk: bulk, zero: tr.Field().Zero(),
		id: id, n: code.N(), maxFaults: maxFaults, row: code.Coeffs()[id],
	}
}

// nodeDecode is a node's decoded view of one round: the decoder's K
// result vectors, each [next state | output], split on read. Instances
// are allocated fresh every round and never mutated afterwards, so the
// pipelined client stage can hold them across rounds.
type nodeDecode[E comparable] struct {
	results  [][]E
	stateLen int
	faulty   []int
}

// nextState is machine m's decoded next state.
func (d *nodeDecode[E]) nextState(m int) []E { return d.results[m][:d.stateLen] }

// output is machine m's decoded output.
func (d *nodeDecode[E]) output(m int) []E { return d.results[m][d.stateLen:] }

// lagrangeRowInto accumulates this node's Lagrange encode Σ_k row[k]
// vecs[k] into dst — (re)allocated at the given length when it does not
// match — as one K-term LinCombAccVec. It returns dst.
func (s *stepCore[E]) lagrangeRowInto(dst []E, length int, vecs [][]E) []E {
	if len(dst) != length {
		dst = make([]E, length)
	}
	for j := range dst {
		dst[j] = s.zero
	}
	s.bulk.LinCombAccVec(dst, s.row, vecs)
	return dst
}

// flattenBatch lays an agreed batch out for encodeCommands: encoding is
// linear and state-independent, so the per-machine command vectors of all
// micro-steps concatenate (step-major) into one flat row per machine. A
// one-step batch already is its flat form.
func flattenBatch[E comparable](batch [][][]E, cmdLen int) [][]E {
	if len(batch) == 1 {
		return batch[0]
	}
	k, total := len(batch[0]), len(batch)*cmdLen
	flat := make([]E, k*total)
	rows := make([][]E, k)
	for m := range rows {
		row := flat[m*total : (m+1)*total : (m+1)*total]
		for j := range batch {
			copy(row[j*cmdLen:(j+1)*cmdLen], batch[j][m])
		}
		rows[m] = row
	}
	return rows
}

// encodeCommands Lagrange-encodes the whole batch's commands (flat rows
// from flattenBatch, shared read-only by every node) into the batch
// scratch: one K-term LinCombAccVec covers every micro-step at once.
func (s *stepCore[E]) encodeCommands(flat [][]E) {
	s.cmdScratch = s.lagrangeRowInto(s.cmdScratch, len(flat[0]), flat)
}

// apply runs the coded transition g_i = f(S̃_i, X̃_i) for the batch's
// micro-th step on the coded command encodeCommands left in the scratch.
// ApplyResult copies its inputs, so the scratch never escapes the round.
func (s *stepCore[E]) apply(micro int) ([]E, error) {
	cmdLen := s.tr.CmdLen()
	return s.tr.ApplyResult(s.codedState, s.cmdScratch[micro*cmdLen:(micro+1)*cmdLen])
}

// resetStep clears the per-step collection state, reusing the
// sender-indexed slice and the receive buffer: every row received so far
// is void from here on.
func (s *stepCore[E]) resetStep() {
	if len(s.received) != s.n {
		s.received = make([][]E, s.n)
	}
	if size := s.n * s.tr.ResultLen(); len(s.recvBuf) != size {
		s.recvBuf = make([]E, size)
	}
	clear(s.received)
	s.receivedCount = 0
}

// recvRow is sender from's row of the receive buffer.
func (s *stepCore[E]) recvRow(from int) []E {
	l := s.tr.ResultLen()
	return s.recvBuf[from*l : (from+1)*l : (from+1)*l]
}

// markReceived records that sender from's row holds its result for the
// current step; a repeated sender is counted once.
func (s *stepCore[E]) markReceived(from int) {
	if s.received[from] == nil {
		s.receivedCount++
		s.received[from] = s.recvRow(from)
	}
}

// accept records sender from's result for the current step, copying it
// into the sender's row; a repeated sender overwrites.
func (s *stepCore[E]) accept(from int, result []E) {
	copy(s.recvRow(from), result)
	s.markReceived(from)
}

// ingest accepts the well-formed result broadcasts for the given round
// computed on the batch tag names among msgs, parsing each straight into
// its sender's row; anything else — another kind, a malformed payload, a
// stale round, another batch, a wrong length, a non-canonical element, a
// sender outside 0..N-1 — is ignored and leaves the rows as they were.
func (s *stepCore[E]) ingest(msgs iter.Seq[transport.Message], round int, tag [32]byte) {
	f := s.tr.Field()
	hdr := resultHeader(round, tag, s.tr.ResultLen())
	for m := range msgs {
		if m.Kind != resultKind || m.From < 0 || int(m.From) >= s.n {
			continue
		}
		if parseResult(f, m.Payload, hdr, s.recvRow(int(m.From))) {
			s.markReceived(int(m.From))
		}
	}
}

// absorb decodes the step from whatever was received (absent senders are
// erasures) and moves the node to the next coded state. The decode is a
// two-rung ladder: the node's primed verified-subset check (trusted rows
// chosen clear of the sticky suspects), then, only when that refuses or
// the layout is ineligible, the full noisy-interpolation decoder —
// DecodeOutputsSubset, which does not repeat the check — the authority on
// anything the check cannot certify. A decode that succeeds has corrected
// every in-budget corrupted result; the senders it caught are in the
// returned faulty set.
func (s *stepCore[E]) absorb() (*nodeDecode[E], error) {
	indices, results := s.idxScratch[:0], s.resScratch[:0]
	for idx, res := range s.received {
		if res != nil {
			indices = append(indices, idx)
			results = append(results, res)
		}
	}
	s.idxScratch, s.resScratch = indices, results
	if !slices.Equal(s.primedIdx, indices) || !slices.Equal(s.primedSusp, s.suspects) {
		// More fresh liars than the received rows' radius are undecodable
		// anyway, so the spare unsuspected rows asked for never exceed it.
		spare := min(s.maxFaults, (len(indices)-s.code.ResultDim(s.tr.Degree()))/2)
		p, err := s.code.NewPrimed(indices, s.suspects, s.tr.Degree(), spare)
		if err != nil {
			return nil, fmt.Errorf("csm: node %d priming decode: %w", s.id, err)
		}
		if p != nil && s.randomized {
			// The stream's top bit keeps it apart from the small stream
			// constants the cluster's other generators use.
			s.primings++
			p.Randomize(s.secret, 1<<63|uint64(s.id)<<32|s.primings&(1<<32-1))
		}
		s.primed = p // may be nil: layout ineligible for the fast path
		s.primedIdx = append(s.primedIdx[:0], indices...)
		s.primedSusp = append(s.primedSusp[:0], s.suspects...)
	}
	var dec *lcc.DecodeResult[E]
	if s.primed != nil {
		fast, ok, err := s.primed.Decode(results, 1)
		if err != nil {
			return nil, fmt.Errorf("csm: node %d primed decode: %w", s.id, err)
		}
		if ok {
			dec = fast
		}
	}
	if dec == nil {
		s.fallbacks++
		full, err := s.code.DecodeOutputsSubset(indices, results, s.tr.Degree())
		if err != nil {
			return nil, fmt.Errorf("csm: node %d decode: %w", s.id, err)
		}
		dec = full
	}
	s.absorbVerdict(dec.FaultyNodes)
	d := &nodeDecode[E]{results: dec.Outputs, stateLen: s.tr.StateLen(), faulty: dec.FaultyNodes}
	nextStates := s.nextScratch[:0]
	for m := range dec.Outputs {
		nextStates = append(nextStates, d.nextState(m))
	}
	s.nextScratch = nextStates
	// Update the coded state: S̃_i(t+1) = Σ_k c_ik Ŝ_k(t+1), re-encoded into
	// the state double-buffer (the outgoing coded state becomes next round's
	// buffer; nothing else retains it — external readers copy).
	newCoded := s.lagrangeRowInto(s.stateScratch, s.tr.StateLen(), nextStates)
	s.stateScratch = s.codedState
	s.codedState = newCoded
	return d, nil
}

// absorbVerdict folds one decode's faulty set into the sticky suspects:
// the union of past verdicts, so a persistent or intermittent liar costs
// one full decode when it first lies rather than one per batch. Once the
// union is too broad for NewPrimed to prime a full round on (fewer than
// dim+b unsuspected nodes), older suspicion is dropped and only the
// latest verdict — at most the code's radius, hence primeable — is kept.
func (s *stepCore[E]) absorbVerdict(faulty []int) {
	s.suspects = ints.UnionSorted(s.suspects, faulty)
	if s.n-len(s.suspects) < s.code.ResultDim(s.tr.Degree())+s.maxFaults {
		s.suspects = append(s.suspects[:0], faulty...)
	}
}

// adoptShare replaces the coded state with a share that did not come out
// of this node's own decodes — a repair, a durable restore, a recovery
// rollback — and forgets the suspicion gathered on the way to the old one.
func (s *stepCore[E]) adoptShare(share []E) {
	s.codedState = share
	s.suspects, s.primed, s.primedIdx, s.primedSusp = nil, nil, nil, nil
}
