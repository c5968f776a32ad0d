package csm

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/nodeapi"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// runDurableCluster opens a cluster over dir, runs the given workload
// slice, closes it, and returns the per-round outputs.
func runDurableCluster(t *testing.T, dir string, workload [][][]uint64, opts ...Option) [][][]uint64 {
	t.Helper()
	gold := field.NewGoldilocks()
	all := append([]Option{
		WithNodes(remoteN), WithMachines(remoteK), WithSeed(remoteSeed),
		WithDurability(dir, SnapshotEvery(2)),
	}, opts...)
	c, err := Open(gold, remoteTransition, all...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Run(workload)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]uint64, len(results))
	for r, res := range results {
		if !res.Correct {
			t.Fatalf("round %d not correct", r)
		}
		out[r] = res.Outputs
	}
	return out
}

// TestClusterDurableRestartContinues is the in-process restart contract:
// a cluster closed after R1 rounds and reopened over the same directory
// resumes at round R1 and its continued outputs are bit-identical to an
// uninterrupted run — including under a Byzantine node, whose garbage
// draws differ after a restart but never reach the decoded outputs.
func TestClusterDurableRestartContinues(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	// One lying node, budgeted: N=5, b=1 keeps K=2 within capacity.
	byz := []Option{WithNodes(5), WithFaults(1), WithByzantineNode(2, WrongResult)}

	want := runDurableCluster(t, t.TempDir(), workload, byz...)

	dir := t.TempDir()
	first := runDurableCluster(t, dir, workload[:3], byz...)

	c, err := Open(gold, remoteTransition,
		append([]Option{WithNodes(remoteN), WithMachines(remoteK), WithSeed(remoteSeed),
			WithDurability(dir, SnapshotEvery(2))}, byz...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Round() != 3 {
		t.Fatalf("reopened cluster at round %d, want 3", c.Round())
	}
	results, err := c.Run(workload[3:])
	if err != nil {
		t.Fatal(err)
	}
	got := append([][][]uint64{}, first...)
	for _, res := range results {
		got = append(got, res.Outputs)
	}
	requireIdentical(t, 0, got, want)

	// The oracle machines must have been restored too: their states
	// after the full workload match an uninterrupted run's.
	ref, err := Open(gold, remoteTransition,
		append([]Option{WithNodes(remoteN), WithMachines(remoteK), WithSeed(remoteSeed)}, byz...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(workload); err != nil {
		t.Fatal(err)
	}
	gotStates, wantStates := c.OracleStates(), ref.OracleStates()
	for k := range wantStates {
		for j := range wantStates[k] {
			if gotStates[k][j] != wantStates[k][j] {
				t.Fatalf("restored oracle machine %d state diverged at %d", k, j)
			}
		}
	}
}

// TestClusterDurabilityOffBitIdentical pins the zero-interference
// contract: the same seeded run with and without durability produces
// bit-identical outputs (durability never touches the cluster RNG).
func TestClusterDurabilityOffBitIdentical(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	byz := []Option{WithNodes(5), WithFaults(1), WithByzantineNode(1, Equivocate)}

	plain, err := Open(gold, remoteTransition,
		append([]Option{WithNodes(remoteN), WithMachines(remoteK), WithSeed(remoteSeed)}, byz...)...)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := plain.Run(workload)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]uint64, len(wantRes))
	for r, res := range wantRes {
		want[r] = res.Outputs
	}
	got := runDurableCluster(t, t.TempDir(), workload, byz...)
	requireIdentical(t, 0, got, want)
}

// TestClusterDurableCrashMidAppendRecovers drives the fault-injection
// hook through the in-process engine: a crash torn mid-WAL-append
// unwinds the run, and a reopen over the directory truncates the torn
// record, replays the durable prefix, and finishes the workload with
// outputs bit-identical to an uninterrupted run.
func TestClusterDurableCrashMidAppendRecovers(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	want := runDurableCluster(t, t.TempDir(), workload)

	dir := t.TempDir()
	open := func() *Cluster[uint64] {
		c, err := Open(gold, remoteTransition,
			WithNodes(remoteN), WithMachines(remoteK), WithSeed(remoteSeed),
			WithDurability(dir, SnapshotEvery(2)))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := open()
	if _, err := c.Run(workload[:2]); err != nil {
		t.Fatal(err)
	}
	// Crash the next batch's write-ahead append mid-record.
	wal.SetCrashHook(func(p wal.CrashPoint) {
		if p == wal.CrashMidRecord {
			panic("injected crash")
		}
	})
	func() {
		defer func() {
			wal.SetCrashHook(nil)
			if recover() == nil {
				t.Fatal("crash hook never fired")
			}
		}()
		c.Run(workload[2:3])
	}()
	c.Close() // the dying process's fd goes away; the torn tail stays

	c2 := open()
	defer c2.Close()
	if c2.Round() != 2 {
		t.Fatalf("recovered at round %d, want 2 (torn batch must not count)", c2.Round())
	}
	results, err := c2.Run(workload[2:])
	if err != nil {
		t.Fatal(err)
	}
	got := append([][][]uint64{}, want[:2]...)
	for _, res := range results {
		got = append(got, res.Outputs)
	}
	requireIdentical(t, 0, got, want)
}

// TestClusterDurabilityRejections pins the layer's config errors.
func TestClusterDurabilityRejections(t *testing.T) {
	gold := field.NewGoldilocks()
	if _, err := Open(gold, remoteTransition,
		WithNodes(remoteN), WithMachines(remoteK), WithDurability(t.TempDir()), WithDelegated(),
	); err == nil {
		t.Error("durability + delegated accepted")
	}
	if _, err := Open(gold, remoteTransition,
		WithNodes(remoteN), WithMachines(remoteK), WithDurability(""),
	); err == nil {
		t.Error("empty data dir accepted")
	}
	// A directory holding another cluster shape is refused, not misread.
	dir := t.TempDir()
	runDurableCluster(t, dir, RandomWorkload[uint64](gold, 2, remoteK, 1, 1))
	if _, err := Open(gold, remoteTransition,
		WithNodes(remoteN+2), WithMachines(remoteK), WithSeed(1), WithDurability(dir),
	); err == nil {
		t.Error("snapshot for N=4 accepted by an N=6 cluster")
	}
}

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
