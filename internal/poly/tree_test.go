package poly

import (
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
)

func TestSubproductTreeMaster(t *testing.T) {
	r := newGoldRing()
	for _, n := range []int{0, 1, 2, 3, 5, 8, 13} {
		xs, err := r.f.Elements(n)
		if err != nil {
			t.Fatal(err)
		}
		tree := NewSubproductTree(r, xs)
		want := r.FromRootsNaive(xs)
		if !r.Equal(tree.Master(), want) {
			t.Errorf("n=%d: master mismatch", n)
		}
		if len(tree.Points()) != n {
			t.Errorf("n=%d: Points() has %d entries", n, len(tree.Points()))
		}
	}
}

func TestFastEvalManyMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for _, ring := range []*Ring[uint64]{newGoldRing(), newGF2mRing(t, 10)} {
		for _, n := range []int{1, 2, 7, 16, 33, 100} {
			xs, err := ring.f.Elements(n)
			if err != nil {
				t.Fatal(err)
			}
			p := randPoly(ring, rng, n+5)
			fast, err := NewSubproductTree(ring, xs).EvalMany(p)
			if err != nil {
				t.Fatal(err)
			}
			slow := ring.EvalMany(p, xs)
			if !slices.Equal(fast, slow) {
				t.Fatalf("%s n=%d: fast eval != Horner", ring.f.Name(), n)
			}
		}
	}
}

func TestFastEvalLowDegreePoly(t *testing.T) {
	r := newGoldRing()
	xs, _ := r.f.Elements(10)
	// Degree < number of points, including the zero polynomial.
	for _, p := range []Poly[uint64]{nil, {7}, {1, 2}} {
		fast, err := NewSubproductTree(r, xs).EvalMany(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fast, r.EvalMany(p, xs)) {
			t.Fatalf("fast eval mismatch for %v", p)
		}
	}
}

func TestFastInterpolateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for _, ring := range []*Ring[uint64]{newGoldRing(), newGF2mRing(t, 10)} {
		for _, n := range []int{1, 2, 5, 16, 31, 64} {
			xs, err := ring.f.Elements(n)
			if err != nil {
				t.Fatal(err)
			}
			ys := field.RandVec(ring.f, rng, n)
			fast, err := NewSubproductTree(ring, xs).Interpolate(ys)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := ring.Interpolate(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			if !ring.Equal(fast, naive) {
				t.Fatalf("%s n=%d: fast interpolate != naive", ring.f.Name(), n)
			}
		}
	}
}

func TestFastInterpolateDuplicates(t *testing.T) {
	r := newGoldRing()
	if _, err := NewSubproductTree(r, []uint64{3, 3}).Interpolate([]uint64{1, 2}); err == nil {
		t.Error("duplicate points should fail")
	}
	if _, err := NewSubproductTree(r, []uint64{1, 2}).Interpolate([]uint64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestFastInterpolateEmpty(t *testing.T) {
	r := newGoldRing()
	p, err := NewSubproductTree(r, nil).Interpolate(nil)
	if err != nil || !r.IsZero(p) {
		t.Errorf("empty: %v, %v", p, err)
	}
	vals, err := NewSubproductTree(r, nil).EvalMany(Poly[uint64]{1, 2})
	if err != nil || len(vals) != 0 {
		t.Errorf("empty eval: %v, %v", vals, err)
	}
}

func TestEncodeDecodeRoundTripViaTree(t *testing.T) {
	// Interpolate then re-evaluate: identity on values. This is exactly the
	// worker's encode step in Section 6.2 (interpolate v_t, evaluate at the
	// alphas).
	r := newGoldRing()
	rng := rand.New(rand.NewPCG(15, 16))
	const k, n = 12, 40
	pts, err := r.f.Elements(k + n)
	if err != nil {
		t.Fatal(err)
	}
	omegas, alphas := pts[:k], pts[k:]
	ys := field.RandVec[uint64](r.f, rng, k)
	v, err := NewSubproductTree(r, omegas).Interpolate(ys)
	if err != nil {
		t.Fatal(err)
	}
	coded, err := NewSubproductTree(r, alphas).EvalMany(v)
	if err != nil {
		t.Fatal(err)
	}
	// Decode: interpolate any k of the coded values together with their
	// alphas must reproduce v.
	v2, err := NewSubproductTree(r, alphas[:k]).Interpolate(coded[:k])
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(v, v2) {
		t.Fatal("round trip through coded evaluations failed")
	}
}

// opCountRing returns a ring whose field counts operations.
func opCountRing() (*Ring[uint64], *field.Counting[uint64]) {
	c := field.NewCounting[uint64](field.NewGoldilocks())
	return NewRing[uint64](c), c
}

func TestFastEvalIsSubquadratic(t *testing.T) {
	// Op-count check backing the Section 6.2 complexity claim: doubling n
	// must grow the cost by clearly less than 4x (quadratic would be 4x).
	rng := rand.New(rand.NewPCG(17, 18))
	cost := func(n int) uint64 {
		ring, counter := opCountRing()
		xs, err := ring.f.Elements(n)
		if err != nil {
			t.Fatal(err)
		}
		p := randPoly(ring, rng, n-1)
		counter.Reset()
		if _, err := NewSubproductTree(ring, xs).EvalMany(p); err != nil {
			t.Fatal(err)
		}
		return counter.Counts().Total()
	}
	c1, c2 := cost(256), cost(512)
	ratio := float64(c2) / float64(c1)
	// The leaf-block Horner descent lowers the absolute operation count but
	// trims proportionally more of the linear term, so the measured growth
	// ratio at these small sizes sits slightly above 3; quadratic would be 4.
	if ratio > 3.3 {
		t.Errorf("fast eval cost ratio for doubling n: %.2f (4 would be quadratic)", ratio)
	}
	t.Logf("fast multipoint eval: cost(256)=%d cost(512)=%d ratio=%.2f", c1, c2, ratio)
}
