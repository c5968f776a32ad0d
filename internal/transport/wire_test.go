package transport

import (
	"bytes"
	"errors"
	"testing"
)

// TestMessageCodecRoundTrip pins the wire codec: every field survives
// encode/decode bit-for-bit.
func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{},
		{From: 3, To: 7, Round: 42, Kind: "csm-result", Payload: []byte{1, 2, 3}},
		{From: 0, To: 0, Round: 0, Kind: "", Payload: nil},
		{From: 15, To: 1, Round: 1 << 30, Kind: "k", Payload: bytes.Repeat([]byte{0xff}, 1024)},
	}
	for i, m := range msgs {
		body, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("msg %d: encode: %v", i, err)
		}
		got, err := UnmarshalMessage(body)
		if err != nil {
			t.Fatalf("msg %d: decode: %v", i, err)
		}
		if got.From != m.From || got.To != m.To || got.Round != m.Round || got.Kind != m.Kind ||
			!bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("msg %d: round-trip mismatch: sent %+v got %+v", i, m, got)
		}
	}
}

// TestMessageCodecRejectsMalformed exercises the length checks: every
// truncation of a valid encoding must error, never panic or mis-parse.
func TestMessageCodecRejectsMalformed(t *testing.T) {
	m := Message{From: 2, To: 5, Round: 9, Kind: "csm-result", Payload: []byte("payload")}
	body, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := UnmarshalMessage(body[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	// Trailing garbage must be rejected too: a frame carries exactly one
	// message.
	if _, err := UnmarshalMessage(append(append([]byte(nil), body...), 0xaa)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestWireCodecRoundTripsSimulatedDelivery is the codec-equivalence
// contract: a message delivered by the simulated network comes back from
// a round-trip through the TCP wire codec with the same (From, To, Round,
// Kind, Payload), so the TCP path exchanges exactly the message the
// simulated oracle delivers. Blob signatures verify on either transport:
// both derive the same cluster keys from the seed.
func TestWireCodecRoundTripsSimulatedDelivery(t *testing.T) {
	net, err := New(Config{N: 4, Mode: Sync, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Broadcast("csm-result", []byte("coded-result-payload")); err != nil {
		t.Fatal(err)
	}
	net.Step()
	rx, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	msgs := rx.Receive()
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1", len(msgs))
	}
	body, err := AppendMessage(nil, msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	m := msgs[0]
	if got.From != m.From || got.To != m.To || got.Round != m.Round || got.Kind != m.Kind ||
		!bytes.Equal(got.Payload, m.Payload) || got.From != 2 || got.To != 0 {
		t.Fatalf("simulated delivery %+v came back from the wire as %+v", m, got)
	}
	// And the TCP side derives the identical keys from the same seed.
	pubs, _ := DeriveKeys(99, 4)
	for i, pub := range pubs {
		netPub, err := net.PublicKey(NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pub, netPub) {
			t.Fatalf("node %d: DeriveKeys public key differs from the simulated network's", i)
		}
	}
}

// TestFrameReaderCaps ensures an oversized frame announcement errors out
// before any allocation.
func TestFrameReaderCaps(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, frameData}) // ~4 GiB announcement
	if _, _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized announcement: got %v, want ErrFrameTooLarge", err)
	}
}

// TestAppendFrame covers the one frame encoder: what it builds the reader
// reads back, and a body over the cap is refused with the reader's typed
// error, leaving the buffer as it was.
func TestAppendFrame(t *testing.T) {
	frame, err := appendFrame(nil, frameDone, doneBody(7))
	if err != nil {
		t.Fatal(err)
	}
	typ, body, err := readFrame(bytes.NewReader(frame))
	if err != nil || typ != frameDone {
		t.Fatalf("round-trip: type %d, err %v", typ, err)
	}
	if round, err := parseDone(body); err != nil || round != 7 {
		t.Fatalf("round-trip: DONE(%d), err %v", round, err)
	}
	prefix := []byte("kept")
	got, err := appendFrame(prefix, frameData, make([]byte, maxFrameBody+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized body: got %v, want ErrFrameTooLarge", err)
	}
	if !bytes.Equal(got, prefix) {
		t.Fatalf("a refused frame left %d bytes behind in the buffer", len(got)-len(prefix))
	}
}
