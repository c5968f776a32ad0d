// Durable coded state: the csm side of the internal/wal layer.
//
// A NodeProcess cannot re-execute commands alone: recovering the next
// coded share requires decoding all N results, which one process cannot
// do offline (f∘u has degree d(K-1), not K-1). A logged batch would
// therefore have no reader, and none is written: the node's log is
// applied records only, one per executed round, fsynced after the decode
// and before the outputs are returned. Each carries the node's own next
// share — one coded state, the size of a single machine's — the marshaled
// run-digest state, and the decoded outputs; replay is a pure state
// restore. Whatever round skew a crash leaves between nodes is reconciled
// by NodeProcess.Recover (recover.go): stale-but-present shares catch up
// via lcc.RepairShare from peers, only for the missing delta.
package csm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"codedsm/internal/field"
	"codedsm/internal/wal"
)

// DurabilityConfig enables the durable state layer rooted at Dir.
type DurabilityConfig struct {
	// Dir is the data directory (created if missing). One directory
	// belongs to one NodeProcess.
	Dir string
	// Sync selects the WAL fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SnapshotEvery is the snapshot cadence in executed rounds
	// (default 32). Snapshots rotate atomically; the WAL segment rolls
	// with each snapshot generation and the previous generation is kept
	// as the torn-rotation fallback.
	SnapshotEvery int
}

func (d DurabilityConfig) normalized() DurabilityConfig {
	if d.SnapshotEvery <= 0 {
		d.SnapshotEvery = 32
	}
	return d
}

// recNodeApplied is the one WAL record type written (the type byte of
// each wal record): post-round share + digest + outputs + deciding
// protocol. Type 1 was the remote engine's write-ahead batch record and
// type 3 the in-process cluster's; neither is written any more, but older
// data directories may hold them, so both values stay reserved — never
// reuse them — and absorbRecord skips them.
const recNodeApplied byte = 2

// ---- fixed binary payload codec ----
//
// Same conventions as the transport wire format and the result codec in
// csm.go: little-endian fixed-width integers, length-prefixed vectors,
// caps checked before allocation.

const maxDurVec = 1 << 24 // elements; far above any real state vector

type bwriter struct{ b []byte }

func (w *bwriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *bwriter) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *bwriter) u8(v byte)    { w.b = append(w.b, v) }
func (w *bwriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *bwriter) vec(v []uint64) {
	w.u32(uint32(len(v)))
	for _, e := range v {
		w.u64(e)
	}
}

type breader struct {
	b    []byte
	off  int
	fail bool
}

func (r *breader) u64() uint64 {
	if r.fail || r.off+8 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *breader) u32() uint32 {
	if r.fail || r.off+4 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *breader) u8() byte {
	if r.fail || r.off+1 > len(r.b) {
		r.fail = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *breader) bytes() []byte {
	n := int(r.u32())
	if r.fail || n < 0 || r.off+n > len(r.b) {
		r.fail = true
		return nil
	}
	out := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return out
}

func (r *breader) vec() []uint64 {
	n := int(r.u32())
	if r.fail || n > maxDurVec || r.off+8*n > len(r.b) {
		r.fail = true
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return out
}

func (r *breader) done() bool { return !r.fail && r.off == len(r.b) }

// count returns n, a count of items of at least minSize > 0 bytes each,
// or fails the reader when the rest of the payload cannot hold them: a
// count is checked before it sizes an allocation.
func (r *breader) count(n, minSize int) int {
	if r.fail || n < 0 || n > (len(r.b)-r.off)/minSize {
		r.fail = true
		return 0
	}
	return n
}

// vecToWire converts a field vector to its canonical uint64 form.
func vecToWire[E comparable](f field.Field[E], vec []E) []uint64 {
	out := make([]uint64, len(vec))
	for i, e := range vec {
		out[i] = f.Uint64(e)
	}
	return out
}

// vecFromWire converts canonical uint64 values into field elements.
func vecFromWire[E comparable](f field.Field[E], vals []uint64) []E {
	out := make([]E, len(vals))
	for i, v := range vals {
		out[i] = f.FromUint64(v)
	}
	return out
}

// matToWire converts a slice of field vectors (plain or a named vector
// type such as poly.Poly) to their canonical form.
func matToWire[E comparable, V ~[]E](f field.Field[E], m []V) [][]uint64 {
	out := make([][]uint64, len(m))
	for i, row := range m {
		out[i] = vecToWire(f, row)
	}
	return out
}

// ---- per-node durable store (remote engine) ----

// appliedState is one round's durable node state: the share and digest
// after executing the round, plus the round's decoded outputs (kept for
// serving catch-up deltas to stale peers).
type appliedState struct {
	share   []uint64
	digest  []byte
	outputs [][]uint64
}

// nodeStore is one NodeProcess's durable state: the current WAL
// segment, the recovered position, and the retained per-round applied
// window (current + previous snapshot generation) that Recover serves
// deltas — and performs rollbacks — from.
type nodeStore struct {
	cfg wal.SyncPolicy
	dir string
	log *wal.Log
	seq uint64

	// proto is the consensus protocol this node decides batches under;
	// every applied record notes it, and replaying a record written under
	// a different protocol is a typed error (protoErr) — the directory
	// belongs to a differently-configured cluster.
	proto    ConsensusKind
	protoErr error

	snapEvery int
	lastSnap  int                  // round of the newest snapshot
	prevSnap  int                  // round of the previous snapshot (retention floor)
	round     int                  // executed rounds recovered at open (not kept current)
	share     []uint64             // share after them, as recovered
	digest    []byte               // digest state after them, as recovered
	applied   map[int]appliedState // executed round -> state after it
	appendBuf bwriter
}

func openNodeStore(cfg DurabilityConfig, proto ConsensusKind) (*nodeStore, error) {
	cfg = cfg.normalized()
	if cfg.Dir == "" {
		return nil, errors.New("csm: durability: empty data directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &nodeStore{
		cfg:       cfg.Sync,
		dir:       cfg.Dir,
		proto:     proto,
		snapEvery: cfg.SnapshotEvery,
		applied:   make(map[int]appliedState),
	}
	seq, payload, err := wal.LoadSnapshot(cfg.Dir)
	switch {
	case errors.Is(err, wal.ErrNoSnapshot):
		// Cold start: generation 0, everything empty.
	case err != nil:
		return nil, err
	default:
		round, share, digest, ok := parseNodeSnapshot(payload)
		if !ok {
			return nil, fmt.Errorf("csm: durability: corrupt node snapshot payload in %s", cfg.Dir)
		}
		s.seq = seq
		s.round, s.share, s.digest = round, share, digest
		s.lastSnap, s.prevSnap = round, round
	}
	// The previous generation's segment extends the retained applied
	// window below the newest snapshot (read-only: records only).
	if s.seq > 0 {
		s.scanSegment(filepath.Join(cfg.Dir, wal.SegmentName(s.seq-1)), false)
	}
	log, recs, err := wal.Open(filepath.Join(cfg.Dir, wal.SegmentName(s.seq)), cfg.Sync)
	if err != nil {
		return nil, err
	}
	s.log = log
	for _, rec := range recs {
		s.absorbRecord(rec, true)
	}
	if s.protoErr != nil {
		log.Close()
		return nil, s.protoErr
	}
	return s, nil
}

// scanSegment reads a retired segment's applied records into the
// retained window. Missing or torn files are fine — the window is a
// best-effort cache for peer catch-up, bounded by the snapshots.
func (s *nodeStore) scanSegment(path string, advance bool) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	wal.Scan(f, func(rec wal.Record) error {
		s.absorbRecord(rec, advance)
		return nil
	})
}

// absorbRecord replays one WAL record into the in-memory state. With
// advance set, applied records move the recovered position forward;
// otherwise they only populate the retained window.
func (s *nodeStore) absorbRecord(rec wal.Record, advance bool) {
	if rec.Type != recNodeApplied {
		return // a legacy batch record (type 1 or 3): never state
	}
	r := &breader{b: rec.Payload}
	round := int(r.u64())
	proto := ConsensusKind(r.u8())
	share := r.vec()
	digest := r.bytes()
	// Each output carries at least its 4-byte length.
	outputs := make([][]uint64, r.count(int(r.u32()), 4))
	for i := range outputs {
		outputs[i] = r.vec()
	}
	if !r.done() {
		return
	}
	if proto != s.proto && s.protoErr == nil {
		s.protoErr = fmt.Errorf("%w: applied record for round %d was decided by %v, node is configured for %v (in %s)",
			ErrConsensusMismatch, round, proto, s.proto, s.dir)
		return
	}
	s.applied[round] = appliedState{share: share, digest: digest, outputs: outputs}
	if advance && round+1 > s.round {
		s.round = round + 1
		s.share = share
		s.digest = digest
	}
}

// appendApplied logs one executed round's resulting state, stamped with
// the protocol that decided the round's batch.
func (s *nodeStore) appendApplied(round int, share []uint64, digest []byte, outputs [][]uint64) error {
	w := &s.appendBuf
	w.b = w.b[:0]
	w.u64(uint64(round))
	w.u8(byte(s.proto))
	w.vec(share)
	w.bytes(digest)
	w.u32(uint32(len(outputs)))
	for _, out := range outputs {
		w.vec(out)
	}
	s.applied[round] = appliedState{share: share, digest: digest, outputs: outputs}
	return s.log.Append(recNodeApplied, w.b)
}

// parseNodeSnapshot decodes a node snapshot payload (snapshot's layout).
func parseNodeSnapshot(payload []byte) (round int, share []uint64, digest []byte, ok bool) {
	r := &breader{b: payload}
	round = int(r.u64())
	share = r.vec()
	digest = r.bytes()
	return round, share, digest, r.done()
}

// snapshotDue reports whether the snapshot cadence has come round.
func (s *nodeStore) snapshotDue(round int) bool { return round-s.lastSnap >= s.snapEvery }

// snapshot rotates to a new snapshot generation: write the snapshot
// atomically, roll the WAL segment, and prune the retained window below
// the previous snapshot.
func (s *nodeStore) snapshot(round int, share []uint64, digest []byte) error {
	var w bwriter
	w.u64(uint64(round))
	w.vec(share)
	w.bytes(digest)
	seq := s.seq + 1
	if err := wal.WriteSnapshot(s.dir, seq, w.b); err != nil {
		return err
	}
	if err := s.log.Close(); err != nil {
		return err
	}
	log, _, err := wal.Open(filepath.Join(s.dir, wal.SegmentName(seq)), s.cfg)
	if err != nil {
		return err
	}
	s.log = log
	s.seq = seq
	s.prevSnap, s.lastSnap = s.lastSnap, round
	//csmlint:allow detmap(order-independent pruning: every key below prevSnap is deleted, none is read)
	for r := range s.applied {
		if r < s.prevSnap {
			delete(s.applied, r)
		}
	}
	return nil
}

// appliedAt returns the durable state after executing the given round
// (i.e. the state a node positioned at round+1 holds), if retained.
func (s *nodeStore) appliedAt(round int) (appliedState, bool) {
	st, ok := s.applied[round]
	return st, ok
}

func (s *nodeStore) close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
