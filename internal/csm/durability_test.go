package csm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/nodeapi"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// ---- multi-process (NodeProcess) durability over local links ----

// durableSession runs one lock-step session over fresh local links:
// every node opens its durable store under dirs[i], runs Recover, and
// then node 0 leads the given workload slice. It returns the final
// digest of every node.
func durableSession(t *testing.T, dirs []string, workload [][][]uint64, batchSize int) []string {
	t.Helper()
	gold := field.NewGoldilocks()
	net, err := transport.New(transport.Config{N: remoteN, Mode: transport.Sync, Seed: remoteSeed})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]string, remoteN)
	errs := make([]error, remoteN)
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l transport.Link) {
			defer wg.Done()
			p, err := NewNodeProcess(RemoteConfig[uint64]{
				BaseField:     gold,
				NewTransition: remoteTransition,
				K:             remoteK,
				MaxFaults:     remoteFaults,
				Durability:    &DurabilityConfig{Dir: dirs[i], SnapshotEvery: 2},
			}, l)
			if err != nil {
				errs[i] = err
				return
			}
			defer p.Close()
			if err := p.Recover(); err != nil {
				errs[i] = err
				return
			}
			resume := p.Round()
			if resume > len(workload) {
				errs[i] = errors.New("recovered past the workload")
				return
			}
			if p.IsSequencer() {
				_, errs[i] = p.Lead(workload[resume:], batchSize)
			} else {
				_, errs[i] = p.Follow()
			}
			digests[i] = p.DigestSum()
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("durable node %d: %v", i, err)
		}
	}
	return digests
}

// referenceDigest computes the canonical run digest of the oracle
// cluster on the same workload.
func referenceDigest(t *testing.T, workload [][][]uint64) string {
	t.Helper()
	d := nodeapi.NewDigest()
	for r, outs := range oracleOutputs(t, workload) {
		d.AddRound(r, outs)
	}
	return d.Sum()
}

func nodeDirs(t *testing.T) []string {
	t.Helper()
	base := t.TempDir()
	dirs := make([]string, remoteN)
	for i := range dirs {
		dirs[i] = filepath.Join(base, "node", string(rune('0'+i)))
	}
	return dirs
}

// copyDir snapshots a node's data directory (for rewinding it later).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// restoreDir replaces a node's data directory with an earlier copy.
func restoreDir(t *testing.T, dir, backup string) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(dir, os.DirFS(backup)); err != nil {
		t.Fatal(err)
	}
}

// TestNodeProcessDurableRestart: all nodes stop after R1 rounds and a
// fresh session over the same directories resumes — aligned, so Recover
// is a handshake no-op — and finishes with the reference digest.
func TestNodeProcessDurableRestart(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	want := referenceDigest(t, workload)
	dirs := nodeDirs(t)

	durableSession(t, dirs, workload[:3], 2)
	digests := durableSession(t, dirs, workload, 2)
	for i, d := range digests {
		if d != want {
			t.Fatalf("node %d digest %s, want %s", i, d, want)
		}
	}
}

// TestNodeProcessRecoverCatchUp rewinds one node a round behind the
// rest (a crash that lost its last applied record): with >= K
// up-to-date peers, Recover repairs its share from their broadcast
// deltas and absorbs the missing outputs, and the finished run's
// digests all match the reference.
func TestNodeProcessRecoverCatchUp(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	want := referenceDigest(t, workload)
	dirs := nodeDirs(t)

	durableSession(t, dirs, workload[:3], 1)
	backup := copyDir(t, dirs[3])
	durableSession(t, dirs, workload[:4], 1)
	restoreDir(t, dirs[3], backup) // node 3 is now one round stale

	digests := durableSession(t, dirs, workload, 1)
	for i, d := range digests {
		if d != want {
			t.Fatalf("node %d digest %s, want %s", i, d, want)
		}
	}
}

// TestNodeProcessRecoverRollback rewinds all but one node: fewer than K
// up-to-date shares remain, so no repair interpolation is possible and
// the ahead node must roll back to the floor round from its retained
// applied window. Deterministic re-execution then lands every node on
// the reference digest.
func TestNodeProcessRecoverRollback(t *testing.T) {
	if remoteK < 2 {
		t.Skip("rollback needs K >= 2 so one share is below the repair threshold")
	}
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	want := referenceDigest(t, workload)
	dirs := nodeDirs(t)

	durableSession(t, dirs, workload[:3], 1)
	backups := make([]string, remoteN)
	for i := 1; i < remoteN; i++ {
		backups[i] = copyDir(t, dirs[i])
	}
	durableSession(t, dirs, workload[:4], 1)
	for i := 1; i < remoteN; i++ {
		restoreDir(t, dirs[i], backups[i]) // only node 0 is at round 4
	}

	digests := durableSession(t, dirs, workload, 1)
	for i, d := range digests {
		if d != want {
			t.Fatalf("node %d digest %s, want %s", i, d, want)
		}
	}
}

// TestNodeProcessDurableTornTail: garbage appended to a node's current
// WAL segment (a torn write at kill time) must be truncated on reopen
// and the node still recovers and completes with the reference digest.
func TestNodeProcessDurableTornTail(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	want := referenceDigest(t, workload)
	dirs := nodeDirs(t)

	durableSession(t, dirs, workload[:3], 2)
	// Tear the tail of node 2's newest segment.
	segs, err := filepath.Glob(filepath.Join(dirs[2], "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", dirs[2], err)
	}
	newest := segs[len(segs)-1]
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	digests := durableSession(t, dirs, workload, 2)
	for i, d := range digests {
		if d != want {
			t.Fatalf("node %d digest %s, want %s", i, d, want)
		}
	}
}

// TestNodeStoreIgnoresLegacyBatchRecords: binaries before the batch record
// was dropped interleaved a type-1 record (round + the gob-coded batch)
// ahead of every applied record. A segment written that way must reopen to
// exactly the state of the same segment without them.
func TestNodeStoreIgnoresLegacyBatchRecords(t *testing.T) {
	const legacyBatch byte = 1
	write := func(dir string, legacy bool) {
		t.Helper()
		s, err := openNodeStore(DurabilityConfig{Dir: dir}, PBFT)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if legacy {
				var w bwriter
				w.u64(uint64(r))
				w.bytes([]byte("the decided batch, as the old binary logged it"))
				if err := s.log.Append(legacyBatch, w.b); err != nil {
					t.Fatal(err)
				}
			}
			outputs := [][]uint64{{uint64(r)}, {uint64(r + 1)}}
			if err := s.appendApplied(r, []uint64{uint64(10 + r)}, []byte{byte(r)}, outputs); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
	}
	oldDir, newDir := t.TempDir(), t.TempDir()
	write(oldDir, true)
	write(newDir, false)

	seg, err := os.Open(filepath.Join(oldDir, wal.SegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	var types []byte
	if _, err := wal.Scan(seg, func(r wal.Record) error { types = append(types, r.Type); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []byte{legacyBatch, recNodeApplied, legacyBatch, recNodeApplied, legacyBatch, recNodeApplied}; !bytes.Equal(types, want) {
		t.Fatalf("legacy segment holds record types %v, want %v", types, want)
	}

	reopen := func(dir string) *nodeStore {
		t.Helper()
		s, err := openNodeStore(DurabilityConfig{Dir: dir}, PBFT)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.close() })
		return s
	}
	got, want := reopen(oldDir), reopen(newDir)
	if got.round != 3 || got.round != want.round ||
		!slices.Equal(got.share, want.share) || !bytes.Equal(got.digest, want.digest) ||
		!reflect.DeepEqual(got.applied, want.applied) {
		t.Errorf("legacy directory reopened at round %d share %v digest %v (%d applied), want round %d share %v digest %v (%d applied)",
			got.round, got.share, got.digest, len(got.applied), want.round, want.share, want.digest, len(want.applied))
	}
}

// TestNodeStoreRefusesOldVersion: a data directory written under format
// version 1 holds shares of the pre-systematic code, which would restore
// as wrong machine states. Opening a node store over its segment, or over
// its snapshot, must fail with wal.ErrBadHeader.
func TestNodeStoreRefusesOldVersion(t *testing.T) {
	downgrade := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[6] = '1' // the version byte of wal.Magic and of the snapshot magic
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segDir, snapDir := t.TempDir(), t.TempDir()
	s, err := openNodeStore(DurabilityConfig{Dir: segDir}, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.appendApplied(0, []uint64{10}, []byte{0}, [][]uint64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	downgrade(filepath.Join(segDir, wal.SegmentName(0)))
	if err := wal.WriteSnapshot(snapDir, 1, []byte("a node snapshot")); err != nil {
		t.Fatal(err)
	}
	downgrade(filepath.Join(snapDir, wal.SnapshotName(1)))
	for _, dir := range []string{segDir, snapDir} {
		if _, err := openNodeStore(DurabilityConfig{Dir: dir}, PBFT); !errors.Is(err, wal.ErrBadHeader) {
			t.Errorf("version-1 %s: openNodeStore err = %v, want wal.ErrBadHeader", dir, err)
		}
	}
}

// FuzzNodeStoreRecord feeds arbitrary bytes to the node store's two disk
// parsers, an applied record (absorbRecord) and a node snapshot
// (parseNodeSnapshot). Neither may panic; neither may allocate more than
// a small multiple of the input, whatever counts it claims; and an
// absorbed record re-encodes to the bytes it was read from.
func FuzzNodeStoreRecord(f *testing.F) {
	var w bwriter
	w.u64(7)
	w.u8(byte(PBFT))
	w.vec([]uint64{1, 2})
	w.bytes([]byte("digest"))
	w.u32(2)
	w.vec([]uint64{3})
	w.vec([]uint64{4, 5})
	f.Add(w.b)
	f.Add(w.b[:len(w.b)-1])
	// A 21-byte record claiming 2^24 outputs.
	f.Add(append(make([]byte, 17), 0, 0, 0, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s *nodeStore
		checkParseAlloc(t, len(data), func() {
			s = &nodeStore{proto: PBFT, applied: make(map[int]appliedState)}
			s.absorbRecord(wal.Record{Type: recNodeApplied, Payload: data}, true)
			parseNodeSnapshot(data)
		})
		if len(s.applied) == 0 {
			return
		}
		var re bwriter
		for round, st := range s.applied {
			re.u64(uint64(round))
			re.u8(byte(s.proto))
			re.vec(st.share)
			re.bytes(st.digest)
			re.u32(uint32(len(st.outputs)))
			for _, out := range st.outputs {
				re.vec(out)
			}
		}
		if !bytes.Equal(re.b, data) {
			t.Fatalf("absorbed record re-encodes to %x, read from %x", re.b, data)
		}
	})
}

// FuzzParseDelta feeds arbitrary bytes to the recovery-delta parser, at
// the target the payload itself names (the only one it can match). It may
// not panic, may not allocate more than a small multiple of the input,
// whatever round span it claims, and an accepted delta re-encodes to the
// bytes it was read from.
func FuzzParseDelta(f *testing.F) {
	tr, err := remoteTransition(field.NewGoldilocks())
	if err != nil {
		f.Fatal(err)
	}
	p := &NodeProcess[uint64]{cfg: RemoteConfig[uint64]{K: 2}, tr: tr}
	encode := func(target, from int, share []uint64, rounds [][][]uint64) []byte {
		var w bwriter
		w.u64(uint64(target))
		w.u64(uint64(from))
		w.vec(share)
		w.u32(uint32(p.cfg.K))
		for _, outs := range rounds {
			for _, out := range outs {
				w.vec(out)
			}
		}
		return w.b
	}
	f.Add(encode(3, 1, []uint64{7}, [][][]uint64{{{1}, {2}}, {{3}, {4}}}))
	// 32 bytes claiming the 2^62 rounds up to target 2^62.
	f.Add(encode(1<<62, 0, []uint64{0}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		target := 0
		if len(data) >= 8 {
			target = int(binary.LittleEndian.Uint64(data))
		}
		var d recoveryDelta
		var ok bool
		checkParseAlloc(t, len(data), func() { d, ok = p.parseDelta(data, target) })
		if !ok {
			return
		}
		if re := encode(target, d.from, d.share, d.rounds); !bytes.Equal(re, data) {
			t.Fatalf("accepted delta re-encodes to %x, read from %x", re, data)
		}
	})
}

// checkParseAlloc runs parse three times and fails t when the smallest
// heap growth of the three exceeds 64 bytes per input byte plus 4 KiB.
// TotalAlloc also counts what the fuzz worker's other goroutines allocate
// meanwhile, which can only add to a run, while the parser's own
// allocation is the same every run: a parser over the bound is over it
// every time.
func checkParseAlloc(t *testing.T, size int, parse func()) {
	t.Helper()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		parse()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > uint64(64*size+1<<12) {
		t.Fatalf("parsing %d bytes allocated %d", size, least)
	}
}
