package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire format of the TCP transport. Inside the authenticated session a
// pair of nodes shares (see tcp.go) each end sends a sequence of
// length-prefixed frames:
//
//	uint32 (LE)  body length
//	byte         frame type (frameData | frameDone)
//	body         type-specific payload
//
// A frameData body is a Message in the fixed binary layout produced by
// AppendMessage — every field of the message the simulated network passes
// around in memory, so a simulated delivery round-trips through the codec
// unchanged (wire_test.go pins this). A message carries no signature: the
// session, not the frame, says who sent it. (This is a wire-format change
// from the layout that ended in a uint8 sigLen and a signature: every
// message is one byte shorter, and a body in the old layout, even with an
// empty signature, is refused for its trailing byte.) frameDone is the
// lock-step barrier marker that ends a peer's round. Nothing inside the
// stream identifies the sender, and frames of any other type are ignored.
//
// All length fields are validated against hard caps before any
// allocation, so a malformed or adversarial frame (fuzzed in
// wire_fuzz_test.go) yields an error, never a panic or a huge make().
const (
	frameData byte = 2
	frameDone byte = 3

	// maxFrameBody bounds a frame body; a peer announcing more is cut off
	// before any allocation happens.
	maxFrameBody = 16 << 20
	// maxWireKind bounds a message kind tag.
	maxWireKind = 255
)

// AppendMessage appends the fixed binary encoding of m to dst:
//
//	uint64 from | uint64 to | uint64 round |
//	uint8 kindLen | kind | uint32 payloadLen | payload
//
// all little-endian. It returns the extended slice.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	if len(m.Kind) > maxWireKind {
		return dst, fmt.Errorf("transport: kind %q longer than %d bytes", m.Kind[:32], maxWireKind)
	}
	if len(m.Payload) > maxFrameBody/2 {
		return dst, fmt.Errorf("transport: payload of %d bytes exceeds the frame cap", len(m.Payload))
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.From))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.To))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Round))
	dst = append(dst, byte(len(m.Kind)))
	dst = append(dst, m.Kind...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Payload)))
	return append(dst, m.Payload...), nil
}

// UnmarshalMessage parses the binary encoding produced by AppendMessage.
// Every length is checked against the remaining input before it is used,
// so truncated, padded, or length-lying inputs fail cleanly.
func UnmarshalMessage(b []byte) (Message, error) {
	var m Message
	if len(b) < 25 { // three uint64 headers + kindLen byte
		return m, fmt.Errorf("transport: message truncated at %d bytes", len(b))
	}
	m.From = NodeID(int64(binary.LittleEndian.Uint64(b[0:])))
	m.To = NodeID(int64(binary.LittleEndian.Uint64(b[8:])))
	m.Round = int(int64(binary.LittleEndian.Uint64(b[16:])))
	kindLen := int(b[24])
	b = b[25:]
	if len(b) < kindLen+4 {
		return m, fmt.Errorf("transport: message kind truncated")
	}
	m.Kind = string(b[:kindLen])
	payloadLen := int(binary.LittleEndian.Uint32(b[kindLen:]))
	b = b[kindLen+4:]
	if payloadLen > maxFrameBody/2 || len(b) < payloadLen {
		return m, fmt.Errorf("transport: message payload truncated")
	}
	if len(b) > payloadLen {
		return m, fmt.Errorf("transport: %d trailing bytes after payload", len(b)-payloadLen)
	}
	m.Payload = append([]byte(nil), b...)
	return m, nil
}

// ErrFrameTooLarge reports a frame body beyond maxFrameBody, on either
// side of the wire: the encoder refuses to build one and the reader cuts
// the stream off before allocating for one.
var ErrFrameTooLarge = errors.New("transport: frame body exceeds the size cap")

// appendFrame appends one length-prefixed frame to dst and returns the
// extended slice. It is the only frame encoder.
func appendFrame(dst []byte, typ byte, body []byte) ([]byte, error) {
	if len(body) > maxFrameBody {
		return dst, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, len(body), maxFrameBody)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, typ)
	return append(dst, body...), nil
}

// readFrame reads one length-prefixed frame, rejecting oversized bodies
// before allocating.
func readFrame(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[:4])
	if size > maxFrameBody {
		return 0, nil, fmt.Errorf("%w: %d > %d bytes announced", ErrFrameTooLarge, size, maxFrameBody)
	}
	body = make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[4], body, nil
}

// doneBody encodes a barrier marker for the given round.
func doneBody(round int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(round))
	return b[:]
}

// parseDone decodes a barrier marker.
func parseDone(body []byte) (int, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("transport: done marker of %d bytes", len(body))
	}
	return int(int64(binary.LittleEndian.Uint64(body))), nil
}
