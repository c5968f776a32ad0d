package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Snapshot files are named snap-<seq>.snap with seq in fixed-width hex
// so lexical order is numeric order. Layout:
//
//	[8]byte    snapMagic
//	uint64 LE  sequence number
//	uint32 LE  payload length
//	uint32 LE  CRC-32C over payload
//	[]byte     payload
//
// A snapshot is written to a .tmp sibling, fsynced, renamed into place,
// and the directory fsynced — so a crash leaves either the old set or
// the old set plus one complete new file, never a half-written .snap.
//
// snapMagic's byte before the newline versions the format with Magic's.
// A snapshot of another version is refused with ErrBadHeader rather than
// skipped: skipping it would cold-start the node over state it cannot
// read.
var snapMagic = [8]byte{'C', 'S', 'M', 'S', 'N', 'P', '2', '\n'}

const snapHdrLen = 8 + 8 + 4 + 4

// MaxSnapshot caps a snapshot payload; a file claiming more is corrupt.
const MaxSnapshot = 256 << 20

// ErrNoSnapshot is returned by LoadSnapshot when the directory holds no
// valid snapshot.
var ErrNoSnapshot = errors.New("wal: no valid snapshot")

// SnapshotName returns the file name for snapshot generation seq.
func SnapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", seq)
}

// SegmentName returns the WAL segment file name paired with snapshot
// generation seq: records appended after that snapshot was taken.
func SegmentName(seq uint64) string {
	return fmt.Sprintf("wal-%016x.log", seq)
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// WriteSnapshot atomically writes snapshot generation seq into dir and
// prunes older generations, keeping the previous one as a fallback for
// crashes during rotation. The previous generation's WAL segment is
// kept on the same schedule; anything older is removed.
func WriteSnapshot(dir string, seq uint64, payload []byte) error {
	if len(payload) > MaxSnapshot {
		return ErrTooLarge
	}
	buf := make([]byte, snapHdrLen+len(payload))
	copy(buf, snapMagic[:])
	binary.LittleEndian.PutUint64(buf[8:16], seq)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.Checksum(payload, castagnoli))
	copy(buf[snapHdrLen:], payload)

	final := filepath.Join(dir, SnapshotName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	fire(CrashSnapshotTemp)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	fire(CrashSnapshotRenamed)
	return pruneGenerations(dir, seq)
}

// LoadSnapshot returns the newest valid snapshot in dir. Torn, corrupt,
// or foreign files are skipped so a crash mid-rotation falls back to
// the previous generation; ErrNoSnapshot means a cold start. Reaching a
// snapshot of another format version returns ErrBadHeader.
func LoadSnapshot(dir string) (seq uint64, payload []byte, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // fixed-width hex: lexical == numeric
	for i := len(names) - 1; i >= 0; i-- {
		s, p, ok, err := readSnapshot(filepath.Join(dir, names[i]))
		if ok || err != nil {
			return s, p, err
		}
	}
	return 0, nil, ErrNoSnapshot
}

// readSnapshot parses one snapshot file. ok=false with a nil error means
// a torn, corrupt or foreign file; ErrBadHeader an intact header of
// another format version.
func readSnapshot(path string) (seq uint64, payload []byte, ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < snapHdrLen {
		return 0, nil, false, nil
	}
	if hdr := [8]byte(data[:8]); hdr != snapMagic {
		if [6]byte(hdr[:6]) == [6]byte(snapMagic[:6]) && hdr[7] == snapMagic[7] {
			return 0, nil, false, fmt.Errorf("%w: snapshot %s has format version %q, want %q", ErrBadHeader, path, hdr[6], snapMagic[6])
		}
		return 0, nil, false, nil
	}
	seq = binary.LittleEndian.Uint64(data[8:16])
	n := binary.LittleEndian.Uint32(data[16:20])
	sum := binary.LittleEndian.Uint32(data[20:24])
	if n > MaxSnapshot || int64(len(data)) != int64(snapHdrLen)+int64(n) {
		return 0, nil, false, nil
	}
	payload = data[snapHdrLen:]
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil, false, nil
	}
	return seq, payload, true, nil
}

// pruneGenerations removes snapshots and WAL segments older than
// generation keep-1, plus any stale .tmp leftovers.
func pruneGenerations(dir string, keep uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		var seq uint64
		var ok bool
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
			continue
		case strings.HasSuffix(name, ".snap"):
			seq, ok = parseSeq(name, "snap-", ".snap")
		case strings.HasSuffix(name, ".log"):
			seq, ok = parseSeq(name, "wal-", ".log")
		}
		if ok && seq+1 < keep {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
