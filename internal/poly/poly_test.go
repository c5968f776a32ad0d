package poly

import (
	"errors"
	"math/rand/v2"
	"testing"

	"codedsm/internal/field"
)

func newGoldRing() *Ring[uint64] {
	return NewRing[uint64](field.NewGoldilocks())
}

func newGF2mRing(t *testing.T, m uint) *Ring[uint64] {
	t.Helper()
	f, err := field.NewGF2m(m)
	if err != nil {
		t.Fatal(err)
	}
	return NewRing[uint64](f)
}

func randPoly(r *Ring[uint64], rng *rand.Rand, deg int) Poly[uint64] {
	if deg < 0 {
		return nil
	}
	p := make(Poly[uint64], deg+1)
	for i := range p {
		p[i] = r.f.Rand(rng)
	}
	for r.f.IsZero(p[deg]) {
		p[deg] = r.f.Rand(rng)
	}
	return p
}

func TestNormalizeAndDeg(t *testing.T) {
	r := newGoldRing()
	cases := []struct {
		in   Poly[uint64]
		deg  int
		zero bool
	}{
		{nil, -1, true},
		{Poly[uint64]{0}, -1, true},
		{Poly[uint64]{0, 0, 0}, -1, true},
		{Poly[uint64]{5}, 0, false},
		{Poly[uint64]{5, 0}, 0, false},
		{Poly[uint64]{0, 1, 0}, 1, false},
		{Poly[uint64]{1, 2, 3}, 2, false},
	}
	for _, tc := range cases {
		if got := r.Deg(tc.in); got != tc.deg {
			t.Errorf("Deg(%v) = %d, want %d", tc.in, got, tc.deg)
		}
		if got := r.IsZero(tc.in); got != tc.zero {
			t.Errorf("IsZero(%v) = %v, want %v", tc.in, got, tc.zero)
		}
	}
}

func TestEvalHorner(t *testing.T) {
	r := newGoldRing()
	// p(z) = 3 + 2z + z^3 at z=5: 3 + 10 + 125 = 138.
	p := Poly[uint64]{3, 2, 0, 1}
	if got := r.Eval(p, 5); got != 138 {
		t.Errorf("Eval = %d, want 138", got)
	}
	if got := r.Eval(nil, 7); got != 0 {
		t.Errorf("Eval(0 poly) = %d", got)
	}
}

func TestAddSub(t *testing.T) {
	r := newGoldRing()
	a := Poly[uint64]{1, 2, 3}
	b := Poly[uint64]{4, 5}
	sum := r.Add(a, b)
	if !r.Equal(sum, Poly[uint64]{5, 7, 3}) {
		t.Errorf("Add = %v", sum)
	}
	diff := r.Sub(sum, b)
	if !r.Equal(diff, a) {
		t.Errorf("(a+b)-b = %v, want %v", diff, a)
	}
	// Cancellation must normalize.
	if got := r.Sub(a, a); !r.IsZero(got) {
		t.Errorf("a - a = %v", got)
	}
	if got := r.Add(a, r.MulScalar(field.GoldilocksModulus-1, a)); !r.IsZero(got) {
		t.Errorf("a + (-1)a = %v", got)
	}
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, ring := range []*Ring[uint64]{newGoldRing(), newGF2mRing(t, 16)} {
		for _, degs := range [][2]int{{0, 0}, {1, 1}, {3, 7}, {20, 50}, {63, 63}, {100, 129}, {200, 300}} {
			a := randPoly(ring, rng, degs[0])
			b := randPoly(ring, rng, degs[1])
			fast := ring.Mul(a, b)
			naive := ring.MulNaive(a, b)
			if !ring.Equal(fast, naive) {
				t.Fatalf("%s: Mul != MulNaive at degs %v", ring.f.Name(), degs)
			}
			if ring.Deg(fast) != degs[0]+degs[1] {
				t.Fatalf("product degree %d, want %d", ring.Deg(fast), degs[0]+degs[1])
			}
		}
	}
}

func TestMulZero(t *testing.T) {
	r := newGoldRing()
	a := Poly[uint64]{1, 2, 3}
	if got := r.Mul(a, nil); !r.IsZero(got) {
		t.Errorf("a * 0 = %v", got)
	}
	if got := r.MulNaive(nil, a); !r.IsZero(got) {
		t.Errorf("0 * a = %v", got)
	}
	if got := r.MulScalar(0, a); !r.IsZero(got) {
		t.Errorf("0 . a = %v", got)
	}
}

func TestNTTRingDetection(t *testing.T) {
	if !newGoldRing().HasNTT() {
		t.Error("Goldilocks ring should have NTT")
	}
	if newGF2mRing(t, 8).HasNTT() {
		t.Error("GF(2^8) ring should not have NTT")
	}
	// A counting wrapper over Goldilocks still exposes NTT.
	c := field.NewCounting[uint64](field.NewGoldilocks())
	if !NewRing[uint64](c).HasNTT() {
		t.Error("counting Goldilocks ring should have NTT")
	}
	// A counting wrapper over GF(2^m) must not.
	f2, err := field.NewGF2m(8)
	if err != nil {
		t.Fatal(err)
	}
	if NewRing[uint64](field.NewCounting[uint64](f2)).HasNTT() {
		t.Error("counting GF(2^8) ring should not have NTT")
	}
}

func TestDivMod(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, ring := range []*Ring[uint64]{newGoldRing(), newGF2mRing(t, 12)} {
		for i := 0; i < 50; i++ {
			a := randPoly(ring, rng, 5+int(rng.Uint64N(40)))
			b := randPoly(ring, rng, int(rng.Uint64N(10)))
			q, rem, err := ring.DivMod(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if ring.Deg(rem) >= ring.Deg(b) {
				t.Fatalf("deg(rem)=%d >= deg(b)=%d", ring.Deg(rem), ring.Deg(b))
			}
			recon := ring.Add(ring.Mul(q, b), rem)
			if !ring.Equal(recon, a) {
				t.Fatalf("%s: q*b + rem != a", ring.f.Name())
			}
		}
	}
}

func TestDivModEdge(t *testing.T) {
	r := newGoldRing()
	if _, _, err := r.DivMod(Poly[uint64]{1, 2}, nil); !errors.Is(err, field.ErrDivisionByZero) {
		t.Error("DivMod by zero should fail")
	}
	// deg(a) < deg(b): q = 0, rem = a.
	q, rem, err := r.DivMod(Poly[uint64]{7}, Poly[uint64]{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.IsZero(q) || !r.Equal(rem, Poly[uint64]{7}) {
		t.Errorf("q=%v rem=%v", q, rem)
	}
}

func TestDerivative(t *testing.T) {
	r := newGoldRing()
	// d/dz (1 + 2z + 3z^2 + 4z^3) = 2 + 6z + 12z^2.
	got := r.Derivative(Poly[uint64]{1, 2, 3, 4})
	if !r.Equal(got, Poly[uint64]{2, 6, 12}) {
		t.Errorf("Derivative = %v", got)
	}
	if !r.IsZero(r.Derivative(Poly[uint64]{9})) {
		t.Error("constant derivative should be zero")
	}
	// Characteristic 2: d/dz z^2 = 2z = 0.
	r2 := newGF2mRing(t, 8)
	if !r2.IsZero(r2.Derivative(Poly[uint64]{0, 0, 1})) {
		t.Error("derivative of z^2 over GF(2^m) should vanish")
	}
	if !r2.Equal(r2.Derivative(Poly[uint64]{0, 0, 0, 1}), Poly[uint64]{0, 0, 1}) {
		t.Error("derivative of z^3 over GF(2^m) should be z^2")
	}
}

func TestInterpolateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, ring := range []*Ring[uint64]{newGoldRing(), newGF2mRing(t, 10)} {
		for _, n := range []int{1, 2, 3, 8, 17, 33} {
			xs, err := ring.f.Elements(n)
			if err != nil {
				t.Fatal(err)
			}
			ys := field.RandVec(ring.f, rng, n)
			p, err := ring.Interpolate(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			if ring.Deg(p) >= n {
				t.Fatalf("interpolant degree %d >= %d", ring.Deg(p), n)
			}
			for i := range xs {
				if got := ring.Eval(p, xs[i]); !ring.f.Equal(got, ys[i]) {
					t.Fatalf("%s n=%d: p(x%d) = %v, want %v", ring.f.Name(), n, i, got, ys[i])
				}
			}
		}
	}
}

func TestInterpolateDuplicatePoints(t *testing.T) {
	r := newGoldRing()
	if _, err := r.Interpolate([]uint64{1, 1}, []uint64{2, 3}); err == nil {
		t.Error("duplicate points should fail")
	}
	if _, err := r.Interpolate([]uint64{1, 2}, []uint64{5}); !errors.Is(err, ErrDegreeMismatch) {
		t.Error("length mismatch should fail")
	}
	p, err := r.Interpolate(nil, nil)
	if err != nil || !r.IsZero(p) {
		t.Errorf("empty interpolation: %v, %v", p, err)
	}
}

// TestPartialEEA checks the (g, v) contract on a generic pair and on the
// edge cases: a divides g - v*b, and deg g < stopDeg.
func TestPartialEEA(t *testing.T) {
	r := newGoldRing()
	rng := rand.New(rand.NewPCG(9, 10))
	a := randPoly(r, rng, 20)
	b := randPoly(r, rng, 15)
	q := randPoly(r, rng, 6)
	for _, tc := range []struct {
		name    string
		a, b    Poly[uint64]
		stopDeg int
	}{
		{"generic", a, b, 8},
		{"b = 0", a, nil, 8},
		{"b divides a, stop below deg b", r.Mul(q, b), b, 8},
		{"b divides a, stop above deg b", r.Mul(q, b), b, 18},
		{"stopDeg > deg a", a, b, 25},
	} {
		g, v, err := r.PartialEEA(tc.a, tc.b, tc.stopDeg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Deg(g) >= tc.stopDeg {
			t.Errorf("%s: remainder degree %d >= stopDeg %d", tc.name, r.Deg(g), tc.stopDeg)
		}
		if _, rem, err := r.DivMod(r.Sub(g, r.Mul(v, tc.b)), tc.a); err != nil || !r.IsZero(rem) {
			t.Errorf("%s: a does not divide g - v*b (remainder %v, %v)", tc.name, rem, err)
		}
	}
}

func TestFromRootsNaive(t *testing.T) {
	r := newGoldRing()
	p := r.FromRootsNaive([]uint64{1, 2, 3})
	for _, root := range []uint64{1, 2, 3} {
		if got := r.Eval(p, root); got != 0 {
			t.Errorf("p(%d) = %d, want 0", root, got)
		}
	}
	if r.Deg(p) != 3 {
		t.Errorf("degree = %d", r.Deg(p))
	}
	if got := r.FromRootsNaive(nil); !r.Equal(got, Poly[uint64]{1}) {
		t.Errorf("empty product = %v", got)
	}
}

func TestCloneAndConstant(t *testing.T) {
	r := newGoldRing()
	p := Poly[uint64]{1, 2}
	c := r.Clone(p)
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases input")
	}
	if !r.IsZero(r.Constant(0)) {
		t.Error("Constant(0) should be zero poly")
	}
	if !r.Equal(r.Constant(5), Poly[uint64]{5}) {
		t.Error("Constant(5) wrong")
	}
}
