package rs

import (
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// Regression test: decoding a corrupted encoding of the ZERO codeword (all
// outputs zero — routine for Boolean machines whose output bit is mostly 0,
// Appendix A). The EEA remainder sequence terminates at zero before the
// Gao stop degree; an early version of PartialEEA returned the previous
// remainder and misdecoded.
func TestDecodeZeroCodeword(t *testing.T) {
	for _, mk := range []func(t *testing.T) *poly.Ring[uint64]{
		func(t *testing.T) *poly.Ring[uint64] { return goldRing() },
		func(t *testing.T) *poly.Ring[uint64] { return newGF2mRingRS(t) },
	} {
		ring := mk(t)
		for _, tc := range []struct{ n, k int }{{8, 4}, {20, 6}, {5, 1}} {
			c := newTestCode(t, ring, tc.n, tc.k)
			word := make([]uint64, tc.n)
			for e := 0; e <= c.MaxErrors(); e++ {
				w := append([]uint64{}, word...)
				for i := 0; i < e; i++ {
					w[i*2] = ring.Field().Add(w[i*2], uint64(i)+7)
				}
				res, err := c.Decode(w)
				if err != nil {
					t.Fatalf("%s n=%d k=%d e=%d: %v", ring.Field().Name(), tc.n, tc.k, e, err)
				}
				if !ring.IsZero(res.Message) {
					t.Fatalf("%s n=%d k=%d e=%d: decoded %v, want zero", ring.Field().Name(), tc.n, tc.k, e, res.Message)
				}
				if len(res.ErrorsAt) != e {
					t.Fatalf("e=%d: found %d errors", e, len(res.ErrorsAt))
				}
			}
		}
	}
}

// Constant (degree-0) codewords exercise the same near-degenerate path.
func TestDecodeConstantCodeword(t *testing.T) {
	ring := goldRing()
	c := newTestCode(t, ring, 12, 5)
	word, err := c.Encode(poly.Poly[uint64]{42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.MaxErrors(); i++ {
		word[i*3] = ring.Field().Add(word[i*3], 1)
	}
	res, err := c.Decode(word)
	if err != nil {
		t.Fatal(err)
	}
	if !ring.Equal(res.Message, poly.Poly[uint64]{42}) {
		t.Fatalf("decoded %v", res.Message)
	}
}

func newGF2mRingRS(t *testing.T) *poly.Ring[uint64] {
	t.Helper()
	f, err := field.NewGF2m(16)
	if err != nil {
		t.Fatal(err)
	}
	return poly.NewRing[uint64](f)
}
