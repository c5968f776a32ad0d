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
	// unit is k when row is the unit row e_k (a systematic node, ω_k = α_k),
	// else -1: that node's encode of any K vectors is a copy of the k-th.
	unit int

	codedState []E

	// per-step collection state: got is the sender-indexed received
	// bitmap and receivedCount its set entries; sender i's row is
	// recvRow(i), valid until the next resetStep. In a NodeProcess that is
	// ownRow(i), a view into recvBuf, the node's flat N x ResultLen receive
	// buffer. A simulated node reads its rows in the cluster's step table,
	// shared, and its own ownRow(i) only where own[i] says the result it
	// took from sender i differs from the sender's shared row; owned counts
	// the set own flags. Both tables are allocated once, so rows, the
	// received rows of the layout primedIdx in sender order, is rebuilt
	// only when that layout changes or an own flag flips (rowsStale; see
	// absorb): it is shared itself when the layout is every node and no
	// flag is set, and otherwise built in rowsBuf. No row is written while
	// it is read.
	got           []bool
	receivedCount int
	recvBuf       []E
	shared        [][]E
	own           []bool
	owned         int
	rowsStale     bool
	rows, rowsBuf [][]E

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
	// each round), result and args are apply's output and its
	// transition's argument scratch, payload is resultPayload's wire
	// buffer and idxScratch stages the decode's received layout.
	cmdScratch   []E
	stateScratch []E
	result, args []E
	payload      []byte
	idxScratch   []int
}

// newStepCore builds node id's core; the caller installs the coded state.
func newStepCore[E comparable](code *lcc.Code[E], tr *sm.Transition[E], bulk field.Bulk[E], id, maxFaults int) stepCore[E] {
	f, row := tr.Field(), code.Coeffs()[id]
	unit := -1
	for k, c := range row {
		if f.IsZero(c) {
			continue
		}
		if unit >= 0 || !f.Equal(c, f.One()) {
			unit = -1
			break
		}
		unit = k
	}
	return stepCore[E]{
		code: code, tr: tr, bulk: bulk, zero: f.Zero(),
		id: id, n: code.N(), maxFaults: maxFaults, row: row, unit: unit,
	}
}

// nodeDecode is a node's decoded view of one step: the decoder's K
// result vectors, each [next state | output], split on read, and the
// senders it caught (FaultyNodes). absorb lays the vectors out in one flat
// block (flat); a decode from a delegated worker's proof has none.
//
// The ownership rule: absorb decodes into a buffer its caller owns, and
// the caller reuses the buffer only once nothing reads the decode. A
// NodeProcess has one, reused after it has copied the step's outputs out.
// The Cluster decodes each node into that node's buffer of the step's
// outcome, which goes back to the cluster's free list only after the
// client stage has tallied the step (Cluster.releaseOutcome), so a decode
// handed to the pipelined stage stays intact however many steps the
// driving goroutine runs ahead.
// Nothing that leaves an engine aliases a decode: RoundResult.Outputs,
// the futures' values and a NodeProcess's outputs are copied into one
// fresh allocation per round.
type nodeDecode[E comparable] struct {
	lcc.DecodeResult[E]
	stateLen int
	flat     []E
}

// layOut points Outputs at k vectors of length l over a flat block,
// allocated only when the shape changes.
func (d *nodeDecode[E]) layOut(k, l int) {
	if len(d.flat) != k*l || len(d.Outputs) != k {
		d.flat, d.Outputs = make([]E, k*l), make([][]E, k)
		for i := range d.Outputs {
			d.Outputs[i] = d.flat[i*l : (i+1)*l : (i+1)*l]
		}
	}
}

// nextState is machine m's decoded next state.
func (d *nodeDecode[E]) nextState(m int) []E { return d.Outputs[m][:d.stateLen] }

// output is machine m's decoded output.
func (d *nodeDecode[E]) output(m int) []E { return d.Outputs[m][d.stateLen:] }

// lagrangeRowInto accumulates this node's Lagrange encode Σ_k row[k]
// vecs[k] into dst — (re)allocated at the given length when it does not
// match — as one K-term LinCombAccVec, or copies vecs[unit] when the row
// is a unit row. Only the first length elements of each vecs[k] are read.
// It returns dst.
func (s *stepCore[E]) lagrangeRowInto(dst []E, length int, vecs [][]E) []E {
	if len(dst) != length {
		dst = make([]E, length)
	}
	if s.unit >= 0 {
		copy(dst, vecs[s.unit])
		return dst
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
// The result is the core's own buffer, valid until its next apply: every
// consumer copies it (accept into the sender's row, resultPayload onto
// the wire).
func (s *stepCore[E]) apply(micro int) ([]E, error) {
	cmdLen, stateLen := s.tr.CmdLen(), s.tr.StateLen()
	if s.result == nil {
		s.result, s.args = make([]E, s.tr.ResultLen()), make([]E, stateLen+cmdLen)
	}
	if err := s.tr.ApplyResultInto(s.result, s.args, s.codedState, s.cmdScratch[micro*cmdLen:(micro+1)*cmdLen]); err != nil {
		return nil, err
	}
	return s.result, nil
}

// resultPayload serializes result for the given round and batch tag
// (appendResult) into the core's payload buffer and returns it, valid
// until its next resultPayload; every transport copies what it sends
// before returning.
func (s *stepCore[E]) resultPayload(round int, tag [32]byte, result []E) []byte {
	s.payload = appendResult(s.payload[:0], s.tr.Field(), round, tag, result)
	return s.payload
}

// resetStep clears the per-step collection state, reusing the bitmap and
// the receive buffer: every row received so far is void from here on.
func (s *stepCore[E]) resetStep() {
	if len(s.got) != s.n {
		s.got, s.own = make([]bool, s.n), make([]bool, s.n)
	}
	if size := s.n * s.tr.ResultLen(); len(s.recvBuf) != size {
		s.recvBuf, s.rowsStale = make([]E, size), true
	}
	clear(s.got)
	s.receivedCount = 0
}

// ownRow is sender from's row of the receive buffer.
func (s *stepCore[E]) ownRow(from int) []E {
	l := s.tr.ResultLen()
	return s.recvBuf[from*l : (from+1)*l : (from+1)*l]
}

// recvRow is where sender from's row is read: the node's own ownRow when
// it has no shared table or own[from] is set, the shared table's row
// otherwise.
func (s *stepCore[E]) recvRow(from int) []E {
	if s.shared == nil || s.own[from] {
		return s.ownRow(from)
	}
	return s.shared[from]
}

// setOwn says whether sender from's row is read from the node's own
// receive buffer (own) or from the shared table.
func (s *stepCore[E]) setOwn(from int, own bool) {
	if s.own[from] == own {
		return
	}
	s.own[from], s.rowsStale = own, true
	if own {
		s.owned++
	} else {
		s.owned--
	}
}

// received is sender from's result for the current step, nil when none
// has been accepted.
func (s *stepCore[E]) received(from int) []E {
	if !s.got[from] {
		return nil
	}
	return s.recvRow(from)
}

// markReceived records that sender from's row holds its result for the
// current step; a repeated sender is counted once.
func (s *stepCore[E]) markReceived(from int) {
	if !s.got[from] {
		s.got[from] = true
		s.receivedCount++
	}
}

// accept records sender from's result for the current step, copying it
// into the sender's row; a repeated sender overwrites. It is for a core
// without a shared table, whose rows are all its own.
func (s *stepCore[E]) accept(from int, result []E) {
	copy(s.ownRow(from), result)
	s.markReceived(from)
}

// ingest accepts the well-formed result broadcasts for the given round
// computed on the batch tag names among msgs, parsing each straight into
// its sender's own row (acceptResult); anything else is ignored and leaves
// the rows as they were. A NodeProcess, the one receiver of its process,
// calls it on what it received; the simulated Cluster parses each envelope
// once for all its nodes instead (Cluster.parseResults).
func (s *stepCore[E]) ingest(msgs iter.Seq[transport.Message], round int, tag [32]byte) {
	f, hdr := s.tr.Field(), resultHeader(round, tag, s.tr.ResultLen())
	for m := range msgs {
		if from, ok := acceptResult(f, s.n, hdr, m, s.ownRow); ok {
			s.markReceived(from)
		}
	}
}

// acceptResult is the accept rule for one delivered message, the one
// both collection paths apply: m counts when it is a result broadcast
// (kind resultKind) from a sender in 0..n-1 whose payload parseResult
// accepts against hdr — so another kind, a malformed payload, a stale
// round, another batch, a wrong length or a non-canonical element does
// not. The parse goes into row(from), which a refusal leaves untouched.
// It returns the sender and whether m counts.
func acceptResult[E comparable](f field.Field[E], n int, hdr [resultHdrLen]byte, m transport.Message, row func(from int) []E) (int, bool) {
	if m.Kind != resultKind || m.From < 0 || int(m.From) >= n {
		return 0, false
	}
	return int(m.From), parseResult(f, m.Payload, hdr, row(int(m.From)))
}

// absorb decodes the step from whatever was received (absent senders are
// erasures) and moves the node to the next coded state. The decode is a
// two-rung ladder: the node's primed verified-subset check (trusted rows
// chosen clear of the sticky suspects), then, only when that refuses or
// the layout is ineligible, the full noisy-interpolation decoder —
// DecodeOutputsSubset, which does not repeat the check — the authority on
// anything the check cannot certify. A decode that succeeds has corrected
// every in-budget corrupted result; the senders it caught are in
// d.FaultyNodes. The decode goes into d, the caller's buffer (see
// nodeDecode).
func (s *stepCore[E]) absorb(d *nodeDecode[E]) error {
	indices := s.idxScratch[:0]
	for idx, ok := range s.got {
		if ok {
			indices = append(indices, idx)
		}
	}
	s.idxScratch = indices
	if !slices.Equal(s.primedIdx, indices) || !slices.Equal(s.primedSusp, s.suspects) {
		// More fresh liars than the received rows' radius are undecodable
		// anyway, so the spare unsuspected rows asked for never exceed it.
		spare := min(s.maxFaults, (len(indices)-s.code.ResultDim(s.tr.Degree()))/2)
		p, err := s.code.NewPrimed(indices, s.suspects, s.tr.Degree(), spare)
		if err != nil {
			return fmt.Errorf("csm: node %d priming decode: %w", s.id, err)
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
		s.rowsStale = true
	}
	if s.rowsStale {
		if s.shared != nil && s.owned == 0 && len(indices) == s.n {
			s.rows = s.shared
		} else {
			s.rowsBuf = s.rowsBuf[:0]
			for _, idx := range indices {
				s.rowsBuf = append(s.rowsBuf, s.recvRow(idx))
			}
			s.rows = s.rowsBuf
		}
		s.rowsStale = false
	}
	d.stateLen = s.tr.StateLen()
	d.layOut(s.code.K(), s.tr.ResultLen())
	ok := false
	if s.primed != nil {
		var err error
		if ok, err = s.primed.DecodeInto(&d.DecodeResult, s.rows); err != nil {
			return fmt.Errorf("csm: node %d primed decode: %w", s.id, err)
		}
	}
	if !ok {
		s.fallbacks++
		full, err := s.code.DecodeOutputsSubset(indices, s.rows, s.tr.Degree())
		if err != nil {
			return fmt.Errorf("csm: node %d decode: %w", s.id, err)
		}
		for k, v := range full.Outputs {
			copy(d.Outputs[k], v) // into the buffer's flat block
		}
		d.FaultyNodes = full.FaultyNodes
	}
	s.absorbVerdict(d.FaultyNodes)
	// Update the coded state: S̃_i(t+1) = Σ_k c_ik Ŝ_k(t+1), re-encoded into
	// the state double-buffer (the outgoing coded state becomes next round's
	// buffer; nothing else retains it — external readers copy). Machine k's
	// next state is the first StateLen elements of its result vector, which
	// is all the encode reads of it.
	newCoded := s.lagrangeRowInto(s.stateScratch, s.tr.StateLen(), d.Outputs)
	s.stateScratch = s.codedState
	s.codedState = newCoded
	return nil
}

// absorbVerdict folds one decode's faulty set into the sticky suspects:
// the union of past verdicts, so a persistent or intermittent liar costs
// one full decode when it first lies rather than one per batch. Once the
// union is too broad for NewPrimed to prime a full round on (fewer than
// dim+b unsuspected nodes), older suspicion is dropped and only the
// latest verdict — at most the code's radius, hence primeable — is kept.
func (s *stepCore[E]) absorbVerdict(faulty []int) {
	if slices.Equal(s.suspects, faulty) {
		return // the steady case: the same liars caught again
	}
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
