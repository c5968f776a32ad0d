package rs

import (
	"errors"
	"math/rand/v2"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

func goldRing() *poly.Ring[uint64] { return poly.NewRing[uint64](field.NewGoldilocks()) }

func newTestCode(t *testing.T, ring *poly.Ring[uint64], n, k int) *Code[uint64] {
	t.Helper()
	pts, err := ring.Field().Elements(n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCode(ring, pts, k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randMsg(ring *poly.Ring[uint64], rng *rand.Rand, k int) poly.Poly[uint64] {
	msg := make(poly.Poly[uint64], k)
	for i := range msg {
		msg[i] = ring.Field().Rand(rng)
	}
	return ring.Normalize(msg)
}

// corrupt flips nerr distinct random positions to fresh random wrong values.
func corrupt(f field.Field[uint64], rng *rand.Rand, word []uint64, nerr int) []int {
	positions := rng.Perm(len(word))[:nerr]
	for _, p := range positions {
		orig := word[p]
		for f.Equal(word[p], orig) {
			word[p] = f.Rand(rng)
		}
	}
	return positions
}

func TestNewCodeValidation(t *testing.T) {
	ring := goldRing()
	pts, _ := ring.Field().Elements(5)
	if _, err := NewCode(ring, pts, 0); err == nil {
		t.Error("dim 0 should fail")
	}
	if _, err := NewCode(ring, pts, 6); err == nil {
		t.Error("dim > n should fail")
	}
	if _, err := NewCode(ring, []uint64{1, 2, 1}, 2); err == nil {
		t.Error("duplicate points should fail")
	}
	c, err := NewCode(ring, pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Length() != 5 || c.Dim() != 3 || c.MaxErrors() != 1 {
		t.Errorf("Length=%d Dim=%d MaxErrors=%d", c.Length(), c.Dim(), c.MaxErrors())
	}
}

func TestEncodeDegreeCheck(t *testing.T) {
	c := newTestCode(t, goldRing(), 6, 3)
	if _, err := c.Encode(poly.Poly[uint64]{1, 2, 3, 4}); err == nil {
		t.Error("over-degree message should fail")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ring := goldRing()
	for _, tc := range []struct{ n, k int }{{5, 1}, {7, 3}, {16, 4}, {31, 11}, {64, 20}} {
		c := newTestCode(t, ring, tc.n, tc.k)
		for e := 0; e <= c.MaxErrors(); e++ {
			msg := randMsg(ring, rng, tc.k)
			word, err := c.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			want := corrupt(ring.Field(), rng, word, e)
			res, err := c.Decode(word)
			if err != nil {
				t.Fatalf("n=%d k=%d e=%d: %v", tc.n, tc.k, e, err)
			}
			if !ring.Equal(res.Message, msg) {
				t.Fatalf("n=%d k=%d e=%d: wrong message", tc.n, tc.k, e)
			}
			if len(res.ErrorsAt) != len(want) {
				t.Fatalf("n=%d k=%d e=%d: found %d errors, injected %d", tc.n, tc.k, e, len(res.ErrorsAt), len(want))
			}
		}
	}
}

func TestDecodeBeyondRadiusFails(t *testing.T) {
	// The paper's Table 2 boundary: decoding succeeds iff
	// 2b ≤ N - (K'-1) - 1 where K' is the code dimension. One error past the
	// radius must be rejected (with overwhelming probability the corrupted
	// word is not within distance MaxErrors of a different codeword; with
	// random corruption and these parameters a silent miscorrect is
	// essentially impossible, but we tolerate it by checking the decoded
	// message differs).
	rng := rand.New(rand.NewPCG(5, 6))
	ring := goldRing()
	c := newTestCode(t, ring, 20, 6) // radius 7
	for trial := 0; trial < 20; trial++ {
		msg := randMsg(ring, rng, 6)
		word, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(ring.Field(), rng, word, c.MaxErrors()+1)
		res, err := c.Decode(word)
		if err == nil && ring.Equal(res.Message, msg) {
			t.Fatal("decoded correctly beyond the unique-decoding radius?")
		}
	}
}

func TestDecodeSubsetErasuresAndErrors(t *testing.T) {
	// Partially synchronous CSM: only N-b results arrive and up to b of
	// those are wrong. Decode must succeed iff 2b ≤ (N-b) - (k-1) - 1.
	rng := rand.New(rand.NewPCG(9, 10))
	ring := goldRing()
	const n, k, b = 19, 4, 4 // N-b = 15, radius (15-4)/2 = 5 >= b: decodable
	c := newTestCode(t, ring, n, k)
	msg := randMsg(ring, rng, k)
	word, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	present := rng.Perm(n)[: n-b : n-b]
	vals := make([]uint64, len(present))
	for i, idx := range present {
		vals[i] = word[idx]
	}
	// Corrupt b of the present values.
	for i := 0; i < b; i++ {
		vals[i] = ring.Field().Add(vals[i], 1)
	}
	res, err := c.DecodeSubset(present, vals)
	if err != nil {
		t.Fatal(err)
	}
	if !ring.Equal(res.Message, msg) {
		t.Fatal("subset decode recovered wrong message")
	}
	if len(res.ErrorsAt) != b {
		t.Fatalf("found %d errors, want %d", len(res.ErrorsAt), b)
	}
	for _, e := range res.ErrorsAt {
		found := false
		for i := 0; i < b; i++ {
			if present[i] == e {
				found = true
			}
		}
		if !found {
			t.Fatalf("error position %d not among corrupted indices", e)
		}
	}
	if _, err := c.DecodeSubset([]int{0, 1}, []uint64{1}); err == nil {
		t.Error("mismatched subset lengths should fail")
	}
	if _, err := c.DecodeSubset([]int{0, n}, []uint64{1, 2}); err == nil {
		t.Error("out-of-range subset index should fail")
	}
}

func TestDecodeWrongLength(t *testing.T) {
	c := newTestCode(t, goldRing(), 8, 3)
	if _, err := c.Decode(make([]uint64, 7)); err == nil {
		t.Error("wrong-length word should fail")
	}
}

func TestDecodeGF2m(t *testing.T) {
	f, err := field.NewGF2m(10)
	if err != nil {
		t.Fatal(err)
	}
	ring := poly.NewRing[uint64](f)
	rng := rand.New(rand.NewPCG(11, 12))
	c := newTestCode(t, ring, 24, 8)
	msg := randMsg(ring, rng, 8)
	word, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	corrupt(f, rng, word, c.MaxErrors())
	res, err := c.Decode(word)
	if err != nil {
		t.Fatal(err)
	}
	if !ring.Equal(res.Message, msg) {
		t.Fatal("GF(2^10) decode failed")
	}
}

func TestErrTooManyErrorsWrapped(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	ring := goldRing()
	c := newTestCode(t, ring, 8, 6) // radius 1
	msg := randMsg(ring, rng, 6)
	word, err := c.Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	corrupt(ring.Field(), rng, word, 3)
	if _, err := c.Decode(word); !errors.Is(err, ErrTooManyErrors) {
		t.Errorf("want ErrTooManyErrors, got %v", err)
	}
}

func TestDecodePropertyRandom(t *testing.T) {
	// Property: for random (n, k, e <= radius, msg, error pattern), the
	// decoder recovers the message and the exact error set.
	rng := rand.New(rand.NewPCG(17, 18))
	ring := goldRing()
	for trial := 0; trial < 60; trial++ {
		n := 6 + int(rng.Uint64N(30))
		k := 1 + int(rng.Uint64N(uint64(n)))
		c := newTestCode(t, ring, n, k)
		e := int(rng.Uint64N(uint64(c.MaxErrors() + 1)))
		msg := randMsg(ring, rng, k)
		word, err := c.Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		injected := corrupt(ring.Field(), rng, word, e)
		res, err := c.Decode(word)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d e=%d): %v", trial, n, k, e, err)
		}
		if !ring.Equal(res.Message, msg) {
			t.Fatalf("trial %d: wrong message", trial)
		}
		if len(res.ErrorsAt) != len(injected) {
			t.Fatalf("trial %d: error count %d != %d", trial, len(res.ErrorsAt), len(injected))
		}
	}
}

// TestDecodeAllocsIndependentOfErrors: at the sim-byz-batched shape (n =
// 64, k = 22 over Goldilocks) a Decode allocates the same number of times
// for every error count from 1 to the radius, whatever number of Euclid
// steps the word takes: the remainder sequence and the cofactor update run
// in one allocation per word.
func TestDecodeAllocsIndependentOfErrors(t *testing.T) {
	ring := goldRing()
	c := newTestCode(t, ring, 64, 22)
	rng := rand.New(rand.NewPCG(7, 8))
	var first float64
	for nerr := 1; nerr <= c.MaxErrors(); nerr++ {
		word, err := c.Encode(randMsg(ring, rng, 22))
		if err != nil {
			t.Fatal(err)
		}
		corrupt(ring.Field(), rng, word, nerr)
		allocs := testing.AllocsPerRun(5, func() {
			if res, err := c.Decode(word); err != nil || len(res.ErrorsAt) != nerr {
				t.Fatalf("%d errors: %v", nerr, err)
			}
		})
		if nerr == 1 {
			first = allocs
			t.Logf("%.0f allocations per decoded word", allocs)
		} else if allocs != first {
			t.Errorf("%d errors: %.0f allocations per word, %.0f with one error", nerr, allocs, first)
		}
	}
}
