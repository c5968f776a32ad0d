package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, path string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path, SyncAlways)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, recs
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, recs := mustOpen(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log returned %d records", len(recs))
	}
	want := []Record{
		{Type: 1, Payload: []byte("alpha")},
		{Type: 2, Payload: nil},
		{Type: 7, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range want {
		if err := l.Append(r.Type, r.Payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := mustOpen(t, path)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("reopen returned %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Type != want[i].Type || !bytes.Equal(r.Payload, want[i].Payload) {
			t.Fatalf("record %d = %v, want %v", i, r, want[i])
		}
	}
	// The reopened log must still accept appends at the right offset.
	if err := l2.Append(9, []byte("tail")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	l2.Close()
	_, got = mustOpen(t, path)
	if len(got) != 4 || got[3].Type != 9 {
		t.Fatalf("after reopen+append got %d records (last %+v)", len(got), got[len(got)-1])
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path)
	if err := l.Append(1, []byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("keep-me-too")); err != nil {
		t.Fatal(err)
	}
	goodSize := l.Size()
	l.Close()

	for name, tail := range map[string][]byte{
		"partial-header": {0x42, 0x00},
		"header-no-body": {0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef},
		"bad-crc":        {0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02},
		"zero-length":    {0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
	} {
		t.Run(name, func(t *testing.T) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l, recs := mustOpen(t, path)
			defer l.Close()
			if len(recs) != 2 {
				t.Fatalf("recovered %d records, want 2", len(recs))
			}
			if l.Size() != goodSize {
				t.Fatalf("size after recovery = %d, want %d", l.Size(), goodSize)
			}
			info, _ := os.Stat(path)
			if info.Size() != goodSize {
				t.Fatalf("file size = %d, want truncation to %d", info.Size(), goodSize)
			}
		})
	}
}

func TestForeignFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, []byte("this is not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, SyncAlways)
	if !errors.Is(err, ErrBadHeader) {
		t.Fatalf("Open on foreign file: err = %v, want ErrBadHeader", err)
	}
}

// TestOldVersionRefused: a segment and a snapshot written under format
// version 1 (shares coded over the pre-systematic points) must not be
// read. Open and LoadSnapshot both refuse them with ErrBadHeader; a
// version-1 snapshot is not skipped as a corrupt one would be.
func TestOldVersionRefused(t *testing.T) {
	dir := t.TempDir()
	old := Magic
	old[6] = '1'
	seg := filepath.Join(dir, SegmentName(0))
	if err := os.WriteFile(seg, append(old[:], encRecord(1, []byte("old share"))...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(seg, SyncAlways); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("Open on a version-1 segment: err = %v, want ErrBadHeader", err)
	}
	if err := WriteSnapshot(dir, 1, []byte("gen-one")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, SnapshotName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[6] = '1'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(dir); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("LoadSnapshot over a version-1 snapshot: err = %v, want ErrBadHeader", err)
	}
}

func TestRecordSizeCap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path)
	defer l.Close()
	if err := l.Append(1, make([]byte, MaxRecord+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: err = %v, want ErrTooLarge", err)
	}
}

// crashErr lets a crash hook unwind Append like a process death would,
// leaving whatever bytes were already written on disk.
type crashErr struct{ at CrashPoint }

func (c crashErr) Error() string { return "injected crash at " + string(c.at) }

func crashAt(t *testing.T, point CrashPoint, fn func() error) {
	t.Helper()
	SetCrashHook(func(p CrashPoint) {
		if p == point {
			panic(crashErr{at: p})
		}
	})
	defer SetCrashHook(nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("crash point %s never fired", point)
		}
		if _, ok := r.(crashErr); !ok {
			panic(r)
		}
	}()
	if err := fn(); err != nil {
		t.Fatalf("fn: %v", err)
	}
	t.Fatalf("fn returned without hitting crash point %s", point)
}

func TestCrashMidRecordRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path)
	if err := l.Append(1, []byte("durable")); err != nil {
		t.Fatal(err)
	}

	crashAt(t, CrashMidRecord, func() error {
		return l.Append(2, bytes.Repeat([]byte{0x55}, 64))
	})
	l.f.Close() // simulate process death without Close's sync

	l2, recs := mustOpen(t, path)
	defer l2.Close()
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, []byte("durable")) {
		t.Fatalf("after mid-record crash recovered %v, want only the durable record", recs)
	}
	if err := l2.Append(3, []byte("post-crash")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestCrashBeforeSyncKeepsLogConsistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path)
	if err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	crashAt(t, CrashBeforeSync, func() error {
		return l.Append(2, []byte("maybe-lost"))
	})
	l.f.Close()

	// The record was fully written before the crash point, so it may
	// survive; either way the log must open cleanly with a valid prefix.
	l2, recs := mustOpen(t, path)
	defer l2.Close()
	if len(recs) != 1 && len(recs) != 2 {
		t.Fatalf("recovered %d records, want 1 or 2", len(recs))
	}
	if !bytes.Equal(recs[0].Payload, []byte("first")) {
		t.Fatalf("first record corrupted: %v", recs[0])
	}
}
