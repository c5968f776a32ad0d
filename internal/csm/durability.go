// Durable coded state: the csm side of the internal/wal layer.
//
// The two engines log different things, because they recover differently:
//
//   - The in-process Cluster logs every decided batch write-ahead, before
//     execution (including skipped ones, so the round/instance counters
//     replay identically), and snapshots the full cluster state — every
//     node's coded share, the oracle machines, membership behaviors, and
//     the churn cursor. Recovery loads the newest valid snapshot and
//     re-executes the logged batches: the log entry IS the consensus
//     decision, so replay bypasses the consensus phase and feeds the
//     agreed commands straight to the execution engine.
//
//   - A NodeProcess cannot re-execute commands alone: recovering the
//     next coded share requires decoding all N results, which one
//     process cannot do offline (f∘u has degree d(K-1), not K-1). A
//     logged batch would therefore have no reader, and none is written:
//     the node's log is applied records only, one per executed round,
//     fsynced after the decode and before the outputs are returned. Each
//     carries the node's own next share — one coded state, the size of a
//     single machine's — the marshaled run-digest state, and the decoded
//     outputs; replay is a pure state restore. Whatever round skew a
//     crash leaves between nodes is reconciled by NodeProcess.Recover
//     (recover.go): stale-but-present shares catch up via
//     lcc.RepairShare from peers, only for the missing delta.
package csm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"codedsm/internal/field"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// DurabilityConfig enables the durable state layer rooted at Dir.
type DurabilityConfig struct {
	// Dir is the data directory (created if missing). One directory
	// belongs to one node (remote engine) or one cluster (in-process).
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

// WAL record types (the type byte of each wal record). Type 1 was the
// remote engine's write-ahead batch record; nothing ever read it and it is
// no longer written, but older data directories hold it, so the value
// stays reserved — never reuse it — and absorbRecord skips it.
const (
	recNodeApplied  byte = 2 // remote: post-round share + digest + outputs + deciding protocol
	recClusterBatch byte = 3 // in-process: decided batch, write-ahead
)

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
		r := &breader{b: payload}
		round := int(r.u64())
		share := r.vec()
		digest := r.bytes()
		if !r.done() {
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
		return // a legacy batch record (type 1): never state
	}
	r := &breader{b: rec.Payload}
	round := int(r.u64())
	proto := ConsensusKind(r.u8())
	share := r.vec()
	digest := r.bytes()
	k := int(r.u32())
	if r.fail || k < 0 || k > maxDurVec {
		return
	}
	outputs := make([][]uint64, k)
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

// ---- in-process cluster durable store ----

type clusterStore struct {
	sync      wal.SyncPolicy
	dir       string
	log       *wal.Log
	seq       uint64
	snapEvery int
	lastSnap  int
	appendBuf bwriter
}

// Close releases the cluster's durable store, syncing any buffered WAL
// appends. It is a no-op for clusters built without durability.
func (c *Cluster[E]) Close() error {
	if c.dur == nil {
		return nil
	}
	err := c.dur.log.Close()
	c.dur = nil
	return err
}

// openDurability loads (or cold-starts) the cluster's durable state:
// newest valid snapshot, then WAL batch replay through the execution
// engine, then a fresh snapshot generation so new appends never mix
// with replayed segments. Called at the end of New, after the cluster
// is fully built in its initial state.
func (c *Cluster[E]) openDurability() error {
	dcfg := c.cfg.Durability.normalized()
	if dcfg.Dir == "" {
		return errors.New("csm: durability: empty data directory")
	}
	if c.cfg.Delegated {
		return errors.New("csm: durability is incompatible with delegated mode")
	}
	if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
		return err
	}
	seq, payload, err := wal.LoadSnapshot(dcfg.Dir)
	cold := errors.Is(err, wal.ErrNoSnapshot)
	if err != nil && !cold {
		return err
	}
	if !cold {
		if err := c.restoreSnapshot(payload); err != nil {
			return err
		}
	}
	log, recs, err := wal.Open(filepath.Join(dcfg.Dir, wal.SegmentName(seq)), dcfg.Sync)
	if err != nil {
		return err
	}
	c.dur = &clusterStore{
		sync: dcfg.Sync, dir: dcfg.Dir, log: log, seq: seq,
		snapEvery: dcfg.SnapshotEvery, lastSnap: c.round,
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Type != recClusterBatch {
			continue
		}
		if err := c.replayBatch(rec.Payload); err != nil {
			return fmt.Errorf("csm: durability: WAL replay: %w", err)
		}
		replayed++
	}
	if !cold || replayed > 0 {
		// Recovery changed (or re-derived) state: cut a fresh generation
		// so the replayed segment is never appended to again.
		if err := c.snapshotDur(); err != nil {
			return err
		}
	}
	// Recovery work is setup, not steady-state measurement.
	c.counting.Reset()
	return nil
}

// snapshotPayload serializes the full cluster state: counters, per-node
// behavior + coded share, and the oracle machine states.
func (c *Cluster[E]) snapshotPayload() []byte {
	f := c.cfg.BaseField
	var w bwriter
	w.u64(uint64(c.round))
	w.u64(uint64(c.epoch))
	w.u64(uint64(c.instances))
	w.u64(uint64(c.churnAt))
	w.u32(uint32(len(c.nodes)))
	for _, n := range c.nodes {
		w.u8(byte(n.behavior))
		w.vec(vecToWire(f, n.codedState))
	}
	w.u32(uint32(len(c.oracle)))
	for _, m := range c.oracle {
		w.vec(vecToWire(f, m.State()))
	}
	return w.b
}

func (c *Cluster[E]) restoreSnapshot(payload []byte) error {
	f := c.cfg.BaseField
	r := &breader{b: payload}
	round := int(r.u64())
	epoch := int(r.u64())
	instances := int(r.u64())
	churnAt := int(r.u64())
	n := int(r.u32())
	if r.fail || n != len(c.nodes) {
		return fmt.Errorf("csm: durability: snapshot is for N=%d, cluster has N=%d", n, len(c.nodes))
	}
	behaviors := make([]Behavior, n)
	shares := make([][]E, n)
	for i := 0; i < n; i++ {
		behaviors[i] = Behavior(r.u8())
		shares[i] = vecFromWire(f, r.vec())
	}
	k := int(r.u32())
	if r.fail || k != len(c.oracle) {
		return fmt.Errorf("csm: durability: snapshot is for K=%d, cluster has K=%d", k, len(c.oracle))
	}
	states := make([][]E, k)
	for i := 0; i < k; i++ {
		states[i] = vecFromWire(f, r.vec())
	}
	if !r.done() {
		return errors.New("csm: durability: corrupt cluster snapshot payload")
	}
	for i, st := range states {
		if len(st) != c.tr.StateLen() {
			return fmt.Errorf("csm: durability: snapshot state %d has length %d, want %d", i, len(st), c.tr.StateLen())
		}
		m, err := sm.NewMachine(c.oracleTr, st)
		if err != nil {
			return err
		}
		c.oracle[i] = m
	}
	for i, nd := range c.nodes {
		c.setBehavior(i, behaviors[i])
		nd.adoptShare(shares[i])
		nd.received, nd.decoded = nil, nil
		down := behaviors[i] == Crashed || behaviors[i] == Recovering
		if err := c.net.SetDown(transport.NodeID(i), down); err != nil {
			return err
		}
	}
	c.round, c.epoch, c.instances, c.churnAt = round, epoch, instances, churnAt
	return nil
}

// logBatch appends a decided batch (write-ahead, after consensus and
// the churn boundary, before execution). A nil agreed batch records a
// skipped instance so replay advances the counters identically.
func (c *Cluster[E]) logBatch(steps int, agreed [][][]E) error {
	st := c.dur
	w := &st.appendBuf
	w.b = w.b[:0]
	w.u64(uint64(c.round))
	w.u32(uint32(steps))
	if agreed == nil {
		w.u8(1)
	} else {
		w.u8(0)
		w.u32(uint32(steps * c.cfg.K))
		for _, cmds := range agreed {
			for _, cmd := range cmds {
				w.vec(vecToWire(c.cfg.BaseField, cmd))
			}
		}
	}
	return st.log.Append(recClusterBatch, w.b)
}

// maybeSnapshotDur rotates the snapshot generation at batch boundaries.
func (c *Cluster[E]) maybeSnapshotDur() error {
	if c.round-c.dur.lastSnap < c.dur.snapEvery {
		return nil
	}
	return c.snapshotDur()
}

// snapshotDur writes a cluster snapshot and rolls the WAL segment to
// the new generation.
func (c *Cluster[E]) snapshotDur() error {
	st := c.dur
	seq := st.seq + 1
	if err := wal.WriteSnapshot(st.dir, seq, c.snapshotPayload()); err != nil {
		return err
	}
	if err := st.log.Close(); err != nil {
		return err
	}
	log, _, err := wal.Open(filepath.Join(st.dir, wal.SegmentName(seq)), st.sync)
	if err != nil {
		return err
	}
	st.log = log
	st.seq = seq
	st.lastSnap = c.round
	return nil
}

// replayBatch re-executes one logged batch. The record is the decided
// batch, so consensus is bypassed; the churn boundary, the skipped-
// instance bookkeeping, and the execution micro-steps run exactly as
// they did originally.
func (c *Cluster[E]) replayBatch(payload []byte) error {
	f := c.cfg.BaseField
	r := &breader{b: payload}
	round := int(r.u64())
	steps := int(r.u32())
	skipped := r.u8() == 1
	if r.fail || steps < 1 || steps > maxDurVec {
		return errors.New("corrupt batch record")
	}
	if round != c.round {
		return fmt.Errorf("batch record for round %d, cluster at round %d", round, c.round)
	}
	var agreed [][][]E
	if !skipped {
		count := int(r.u32())
		if r.fail || count != steps*c.cfg.K {
			return errors.New("corrupt batch record: command count")
		}
		agreed = make([][][]E, steps)
		for j := range agreed {
			agreed[j] = make([][]E, c.cfg.K)
			for k := 0; k < c.cfg.K; k++ {
				cmd := vecFromWire(f, r.vec())
				if len(cmd) != c.tr.CmdLen() {
					return errors.New("corrupt batch record: command length")
				}
				agreed[j][k] = cmd
			}
		}
	}
	if !r.done() {
		return errors.New("corrupt batch record: trailing bytes")
	}
	if err := c.applyChurn(c.round, steps); err != nil {
		return err
	}
	c.instances++ // normally runConsensus counts the instance
	_, err := c.executeAgreed(agreed, steps, 0, nil, true)
	return err
}
