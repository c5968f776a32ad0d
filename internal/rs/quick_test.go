package rs

import (
	randv1 "math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"codedsm/internal/poly"
)

// decodeCase is a randomly generated decoding instance within the code's
// error-correction radius.
type decodeCase struct {
	n, k     int
	msg      poly.Poly[uint64]
	errorsAt []int
}

func quickDecodeConfig(ring *poly.Ring[uint64]) *quick.Config {
	return &quick.Config{
		MaxCount: 80,
		Values: func(args []reflect.Value, src *randv1.Rand) {
			r := randv2.New(randv2.NewPCG(src.Uint64(), src.Uint64()))
			n := 4 + int(r.Uint64N(40))
			k := 1 + int(r.Uint64N(uint64(n)))
			msg := make(poly.Poly[uint64], k)
			for i := range msg {
				msg[i] = ring.Field().Rand(r)
			}
			radius := (n - k) / 2
			e := 0
			if radius > 0 {
				e = int(r.Uint64N(uint64(radius + 1)))
			}
			args[0] = reflect.ValueOf(decodeCase{
				n: n, k: k,
				msg:      ring.Normalize(msg),
				errorsAt: r.Perm(n)[:e],
			})
		},
	}
}

// TestQuickDecodeWithinRadius is the central coding invariant of the paper
// (Section 5.2): any error pattern of weight <= (N - d(K-1) - 1)/2 is
// corrected exactly, and the error positions are identified.
func TestQuickDecodeWithinRadius(t *testing.T) {
	ring := goldRing()
	if err := quick.Check(func(c decodeCase) bool {
		pts, err := ring.Field().Elements(c.n)
		if err != nil {
			return false
		}
		code, err := NewCode(ring, pts, c.k)
		if err != nil {
			return false
		}
		word, err := code.Encode(c.msg)
		if err != nil {
			return false
		}
		for _, pos := range c.errorsAt {
			word[pos] = ring.Field().Add(word[pos], 1)
		}
		res, err := code.Decode(word)
		if err != nil {
			return false
		}
		if !ring.Equal(res.Message, c.msg) {
			return false
		}
		return len(res.ErrorsAt) == len(c.errorsAt)
	}, quickDecodeConfig(ring)); err != nil {
		t.Error(err)
	}
}

// TestQuickEncodeIsLinear: the code is linear — encode(a+b) = encode(a) +
// encode(b) componentwise. CSM's state update step (re-encoding decoded
// states) relies on this.
func TestQuickEncodeIsLinear(t *testing.T) {
	ring := goldRing()
	pts, err := ring.Field().Elements(20)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewCode(ring, pts, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(args []reflect.Value, src *randv1.Rand) {
			r := randv2.New(randv2.NewPCG(src.Uint64(), src.Uint64()))
			for i := range args {
				msg := make(poly.Poly[uint64], 7)
				for j := range msg {
					msg[j] = ring.Field().Rand(r)
				}
				args[i] = reflect.ValueOf(msg)
			}
		},
	}
	if err := quick.Check(func(a, b poly.Poly[uint64]) bool {
		ea, err1 := code.Encode(ring.Normalize(a))
		eb, err2 := code.Encode(ring.Normalize(b))
		esum, err3 := code.Encode(ring.Add(a, b))
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		f := ring.Field()
		for i := range esum {
			if !f.Equal(esum[i], f.Add(ea[i], eb[i])) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
