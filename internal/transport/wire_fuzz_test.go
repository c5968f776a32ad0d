package transport

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalMessage hammers the frame-body decoder with arbitrary
// bytes: a malformed or truncated frame from a Byzantine peer must fail
// cleanly — no panic, no runaway allocation — and anything that does
// decode must re-encode canonically (decode∘encode is the identity on
// the codec's image).
func FuzzUnmarshalMessage(f *testing.F) {
	valid, err := AppendMessage(nil, Message{
		From: 1, To: 2, Round: 3, Kind: "csm-result",
		Payload: []byte("payload"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalMessage(data)
		if err != nil {
			return
		}
		re, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m2, err := UnmarshalMessage(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if m2.From != m.From || m2.To != m.To || m2.Round != m.Round || m2.Kind != m.Kind ||
			!bytes.Equal(m2.Payload, m.Payload) {
			t.Fatalf("decode/encode/decode not stable: %+v vs %+v", m, m2)
		}
	})
}

// FuzzReadFrame covers the length-prefixed stream framing: arbitrary
// byte streams (truncated prefixes, lying length fields, unknown frame
// types) must never panic the reader, and announced sizes beyond the cap
// must be rejected before allocation.
func FuzzReadFrame(f *testing.F) {
	done, err := appendFrame(nil, frameDone, doneBody(7))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(done)
	f.Add([]byte{0, 0, 0, 0, frameData})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, body, err := readFrame(r)
			if err != nil {
				return
			}
			switch typ {
			case frameDone:
				if _, err := parseDone(body); err != nil {
					_ = err // malformed done bodies are ignored by the read loop
				}
			case frameData:
				if _, err := UnmarshalMessage(body); err != nil {
					_ = err
				}
			}
		}
	})
}
