// Package wal provides the durability layer for the coded state machine:
// an append-only, CRC-framed, length-prefixed record log plus atomically
// rotated snapshots. The framing follows the same fixed binary
// conventions as internal/transport/wire.go — little-endian fixed-width
// headers, a magic prefix, and hard caps checked before any allocation —
// so a WAL segment is as self-describing as a wire frame.
//
// On-disk record layout (after an 8-byte file header):
//
//	uint32 LE  body length (type byte + payload)
//	uint32 LE  CRC-32C (Castagnoli) over the body
//	byte       record type
//	[]byte     payload
//
// A torn or corrupt tail — a partial header, a short body, or a CRC
// mismatch — terminates a scan without error: recovery keeps every
// record up to the last valid one and Open truncates the tail so the
// log is append-clean again. Corruption is indistinguishable from a
// torn write by design; the caller's snapshot + replay protocol must
// tolerate losing a suffix, never a middle.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Magic prefixes a WAL segment file. The byte before the newline
// versions the format; bumping it invalidates old segments. Version 2
// marks shares coded over lcc.New's systematic points: a version-1
// share of node i is the coded state at what is now node i+K's point,
// so it would restore as wrong machine states instead of failing.
var Magic = [8]byte{'C', 'S', 'M', 'W', 'A', 'L', '2', '\n'}

const (
	headerLen    = 8 // len(Magic)
	recordHdrLen = 8 // uint32 length + uint32 crc
	// MaxRecord caps a single record body. Mirrors the transport's
	// frame cap: anything larger is treated as corruption, not data.
	MaxRecord = 16 << 20
)

var (
	// ErrTooLarge is returned by Append for a record over MaxRecord.
	ErrTooLarge = errors.New("wal: record exceeds size cap")
	// ErrBadHeader is returned by Open/Scan when a file exists but does
	// not start with the WAL magic — a foreign or smashed file, not a
	// torn tail, so it is an error rather than silent truncation.
	ErrBadHeader = errors.New("wal: bad file header")
)

// castagnoli is the CRC-32C table; same polynomial family the storage
// world uses for torn-write detection.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append. Slowest, loses nothing.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves syncing to the OS (and explicit Sync calls).
	// A crash can lose a suffix of acknowledged appends; recovery
	// still works because the tail is discarded, but the caller must
	// be able to re-derive lost rounds from peers.
	SyncNever
)

// Record is one decoded WAL entry.
type Record struct {
	Type    byte
	Payload []byte
}

// Log is an append-only record log backed by a single segment file.
type Log struct {
	f      *os.File
	policy SyncPolicy
	size   int64
	buf    []byte
}

// Open opens (creating if absent) the segment at path, scans it for
// valid records, truncates any torn tail, and returns the log
// positioned for append together with the records that survived.
// Payload slices are owned by the caller. Under SyncAlways a created
// segment's directory entry is durable on return: the records fsynced
// into it later are only as durable as its name.
func Open(path string, policy SyncPolicy) (_ *Log, _ []Record, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	l := &Log{f: f, policy: policy}
	if info.Size() == 0 {
		if _, err := f.Write(Magic[:]); err != nil {
			return nil, nil, err
		}
		if err := l.maybeSync(); err != nil {
			return nil, nil, err
		}
		if policy == SyncAlways {
			if err := syncDir(filepath.Dir(path)); err != nil {
				return nil, nil, err
			}
		}
		l.size = headerLen
		return l, nil, nil
	}
	var recs []Record
	end, err := Scan(f, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if end < info.Size() {
		// Torn or corrupt tail: discard everything after the last
		// valid record so appends resume from a clean boundary.
		if err := f.Truncate(end); err != nil {
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, nil, err
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return nil, nil, err
	}
	l.size = end
	return l, recs, nil
}

// Scan reads records from r, invoking fn for each valid one, and
// returns the byte offset just past the last valid record. A torn or
// corrupt tail ends the scan silently; fn errors and underlying read
// errors (other than EOF) are returned. A missing or wrong magic
// header yields ErrBadHeader.
func Scan(r io.Reader, fn func(Record) error) (int64, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, ErrBadHeader
		}
		return 0, err
	}
	if hdr != Magic {
		return 0, ErrBadHeader
	}
	off := int64(headerLen)
	var rh [recordHdrLen]byte
	for {
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil // torn header: stop at last valid record
			}
			return off, err
		}
		n := binary.LittleEndian.Uint32(rh[0:4])
		sum := binary.LittleEndian.Uint32(rh[4:8])
		if n == 0 || n > MaxRecord+1 {
			return off, nil // implausible length: treat as corruption
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil // torn body
			}
			return off, err
		}
		if crc32.Checksum(body, castagnoli) != sum {
			return off, nil // bit rot or torn overwrite
		}
		if err := fn(Record{Type: body[0], Payload: body[1:]}); err != nil {
			return off, err
		}
		off += recordHdrLen + int64(n)
	}
}

// Append writes one record. Under SyncAlways it is durable when Append
// returns. The payload may be reused by the caller afterwards.
func (l *Log) Append(typ byte, payload []byte) error {
	if len(payload)+1 > MaxRecord+1 {
		return ErrTooLarge
	}
	n := 1 + len(payload)
	need := recordHdrLen + n
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	buf := l.buf[:need]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(n))
	buf[recordHdrLen] = typ
	copy(buf[recordHdrLen+1:], payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(buf[recordHdrLen:], castagnoli))

	fire(CrashBeforeAppend)
	if hookInstalled() {
		// Split the write so a mid-record crash hook observes a
		// genuinely torn record on disk, not an atomic all-or-nothing.
		half := len(buf) / 2
		if _, err := l.f.Write(buf[:half]); err != nil {
			return err
		}
		fire(CrashMidRecord)
		if _, err := l.f.Write(buf[half:]); err != nil {
			return err
		}
	} else if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.size += int64(need)
	return l.maybeSync()
}

func (l *Log) maybeSync() error {
	if l.policy != SyncAlways {
		return nil
	}
	fire(CrashBeforeSync)
	return l.f.Sync()
}

// Sync forces buffered appends to stable storage regardless of policy.
func (l *Log) Sync() error { return l.f.Sync() }

// Size reports the current segment size in bytes, header included.
func (l *Log) Size() int64 { return l.size }

// Close closes the segment, syncing it first under SyncNever; under
// SyncAlways every append (and the header) was synced as it was written.
func (l *Log) Close() error {
	if l.policy != SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}
