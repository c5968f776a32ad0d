package poly

import (
	randv1 "math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// genPoly produces a random polynomial of degree < maxLen from quick's
// randomness source.
func genPoly(r *randv2.Rand, ring *Ring[uint64], maxLen int) Poly[uint64] {
	n := int(r.Uint64N(uint64(maxLen)))
	p := make(Poly[uint64], n)
	for i := range p {
		p[i] = ring.f.Rand(r)
	}
	return ring.Normalize(p)
}

// quickPolyConfig adapts testing/quick to generate polynomial pairs.
func quickPolyConfig(ring *Ring[uint64], maxLen int) *quick.Config {
	return &quick.Config{
		MaxCount: 120,
		Values: func(args []reflect.Value, src *randv1.Rand) {
			r := randv2.New(randv2.NewPCG(src.Uint64(), src.Uint64()))
			for i := range args {
				args[i] = reflect.ValueOf(genPoly(r, ring, maxLen))
			}
		},
	}
}

func TestQuickRingAxioms(t *testing.T) {
	ring := newGoldRing()
	cfg := quickPolyConfig(ring, 80)

	t.Run("mul-commutative", func(t *testing.T) {
		if err := quick.Check(func(a, b Poly[uint64]) bool {
			return ring.Equal(ring.Mul(a, b), ring.Mul(b, a))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("mul-associative", func(t *testing.T) {
		if err := quick.Check(func(a, b, c Poly[uint64]) bool {
			return ring.Equal(ring.Mul(ring.Mul(a, b), c), ring.Mul(a, ring.Mul(b, c)))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributive", func(t *testing.T) {
		if err := quick.Check(func(a, b, c Poly[uint64]) bool {
			lhs := ring.Mul(a, ring.Add(b, c))
			rhs := ring.Add(ring.Mul(a, b), ring.Mul(a, c))
			return ring.Equal(lhs, rhs)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("add-inverse", func(t *testing.T) {
		if err := quick.Check(func(a, b Poly[uint64]) bool {
			return ring.Equal(ring.Sub(ring.Add(a, b), b), a)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("divmod-identity", func(t *testing.T) {
		if err := quick.Check(func(a, b Poly[uint64]) bool {
			if ring.IsZero(b) {
				return true
			}
			q, rem, err := ring.DivMod(a, b)
			if err != nil {
				return false
			}
			return ring.Equal(ring.Add(ring.Mul(q, b), rem), a) && ring.Deg(rem) < ring.Deg(b)
		}, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("eval-homomorphism", func(t *testing.T) {
		if err := quick.Check(func(a, b Poly[uint64]) bool {
			x := uint64(12345)
			sum := ring.Eval(ring.Add(a, b), x)
			prod := ring.Eval(ring.Mul(a, b), x)
			f := ring.f
			return f.Equal(sum, f.Add(ring.Eval(a, x), ring.Eval(b, x))) &&
				f.Equal(prod, f.Mul(ring.Eval(a, x), ring.Eval(b, x)))
		}, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestQuickInterpolationRoundTrip(t *testing.T) {
	ring := newGoldRing()
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(args []reflect.Value, src *randv1.Rand) {
			r := randv2.New(randv2.NewPCG(src.Uint64(), src.Uint64()))
			n := 1 + int(r.Uint64N(60))
			ys := make([]uint64, n)
			for i := range ys {
				ys[i] = ring.f.Rand(r)
			}
			args[0] = reflect.ValueOf(ys)
		},
	}
	if err := quick.Check(func(ys []uint64) bool {
		xs, err := ring.f.Elements(len(ys))
		if err != nil {
			return false
		}
		p, err := NewSubproductTree(ring, xs).Interpolate(ys)
		if err != nil {
			return false
		}
		got, err := NewSubproductTree(ring, xs).EvalMany(p)
		if err != nil {
			return false
		}
		return slices.Equal(got, ys)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickGF2mMulMatchesNaive(t *testing.T) {
	ring := newGF2mRing(t, 12)
	cfg := quickPolyConfig(ring, 50)
	if err := quick.Check(func(a, b Poly[uint64]) bool {
		return ring.Equal(ring.Mul(a, b), ring.MulNaive(a, b))
	}, cfg); err != nil {
		t.Error(err)
	}
}
