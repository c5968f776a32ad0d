package field

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestBatchInv(t *testing.T) {
	g := NewGoldilocks()
	r := rand.New(rand.NewPCG(7, 8))
	xs := make([]uint64, 50)
	for i := range xs {
		for xs[i] == 0 {
			xs[i] = g.Rand(r)
		}
	}
	invs := make([]uint64, len(xs))
	if err := AsBulk[uint64](g).BatchInvInto(invs, xs); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if g.Mul(xs[i], invs[i]) != 1 {
			t.Fatalf("index %d: x * inv(x) != 1", i)
		}
	}
}

// TestRandVecIntoDrawsAsRandVec: filling a buffer consumes the stream
// exactly as drawing a fresh vector of its length does.
func TestRandVecIntoDrawsAsRandVec(t *testing.T) {
	g := NewGoldilocks()
	a, b := rand.New(rand.NewPCG(1, 2)), rand.New(rand.NewPCG(1, 2))
	dst := make([]uint64, 9)
	for range 3 {
		want := RandVec[uint64](g, a, len(dst))
		if got := RandVecInto[uint64](g, b, dst); !slices.Equal(got, want) {
			t.Fatalf("RandVecInto drew %v, RandVec %v", got, want)
		}
	}
}

func TestBatchInvZero(t *testing.T) {
	g := NewGoldilocks()
	if err := AsBulk[uint64](g).BatchInvInto(make([]uint64, 4), []uint64{1, 2, 0, 4}); !errors.Is(err, ErrDivisionByZero) {
		t.Fatalf("expected ErrDivisionByZero, got %v", err)
	}
	if err := AsBulk[uint64](g).BatchInvInto(nil, nil); err != nil {
		t.Fatalf("BatchInvInto(nil) = %v", err)
	}
}

func TestDivAndExp(t *testing.T) {
	g := NewGoldilocks()
	inv5, err := g.Inv(5)
	if err != nil {
		t.Fatal(err)
	}
	if q := g.Mul(10, inv5); g.Mul(q, 5) != 10 {
		t.Fatalf("10/5 * 5 != 10 (got q=%d)", q)
	}
	if _, err := g.Inv(0); !errors.Is(err, ErrDivisionByZero) {
		t.Fatal("Inv(0) should fail")
	}
	if got := Exp[uint64](g, 3, 0); got != 1 {
		t.Errorf("3^0 = %d, want 1", got)
	}
	if got := Exp[uint64](g, 3, 5); got != 243 {
		t.Errorf("3^5 = %d, want 243", got)
	}
	// Fermat: a^(p-1) == 1.
	if got := Exp[uint64](g, 12345, GoldilocksModulus-1); got != 1 {
		t.Errorf("a^(p-1) = %d, want 1", got)
	}
}

func TestVectorOps(t *testing.T) {
	g := NewGoldilocks()
	a := []uint64{1, 2, 3}
	b := []uint64{10, 20, 30}
	sum := make([]uint64, len(a))
	AsBulk[uint64](g).AddVec(sum, a, b)
	if !slices.Equal(sum, []uint64{11, 22, 33}) {
		t.Errorf("AddVec = %v", sum)
	}
	scaled := make([]uint64, len(a))
	AsBulk[uint64](g).ScaleVec(scaled, 2, a)
	if !slices.Equal(scaled, []uint64{2, 4, 6}) {
		t.Errorf("ScaleVec = %v", scaled)
	}
	d, err := Dot[uint64](g, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1*10+2*20+3*30 {
		t.Errorf("Dot = %d", d)
	}
	if _, err := Dot[uint64](g, a, b[:1]); err == nil {
		t.Error("Dot length mismatch should fail")
	}
	z := ZeroVec[uint64](g, 4)
	for _, e := range z {
		if e != 0 {
			t.Error("ZeroVec not zero")
		}
	}
	r := rand.New(rand.NewPCG(1, 1))
	rv := RandVec[uint64](g, r, 8)
	if len(rv) != 8 {
		t.Error("RandVec wrong length")
	}
}

func TestCountingField(t *testing.T) {
	c := NewCounting[uint64](NewGoldilocks())
	if c.Counts() != (OpCounts{}) {
		t.Fatal("fresh counter not zero")
	}
	c.Add(1, 2)
	c.Sub(5, 3)
	c.Neg(7)
	c.Mul(3, 4)
	c.Mul(3, 4)
	if _, err := c.Inv(9); err != nil {
		t.Fatal(err)
	}
	got := c.Counts()
	want := OpCounts{Adds: 3, Muls: 2, Invs: 1}
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	if got.Total() != 3+2+invMulCost {
		t.Errorf("Total = %d", got.Total())
	}
	c.Reset()
	if c.Counts() != (OpCounts{}) {
		t.Fatal("Reset did not zero counters")
	}
	// Decorated arithmetic must agree with the inner field.
	g := NewGoldilocks()
	if c.Mul(123, 456) != g.Mul(123, 456) {
		t.Fatal("counting field changes results")
	}
	if c.Name() != g.Name() || c.Zero() != 0 || c.One() != 1 {
		t.Fatal("identity methods differ")
	}
	if c.FromUint64(GoldilocksModulus+1) != 1 || c.Uint64(42) != 42 {
		t.Fatal("conversion methods differ")
	}
	if !c.Equal(5, 5) || c.Equal(5, 6) || !c.IsZero(0) || c.IsZero(1) {
		t.Fatal("comparison methods differ")
	}
	if _, err := c.Elements(10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RootOfUnity(8); err != nil {
		t.Fatalf("counting Goldilocks should expose roots of unity: %v", err)
	}
}

func TestCountingFieldNoNTT(t *testing.T) {
	f, err := NewGF2m(8)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounting[uint64](f)
	if _, err := c.RootOfUnity(8); err == nil {
		t.Fatal("GF(2^8) must not expose power-of-two roots of unity")
	}
}

func TestOpCountsArithmetic(t *testing.T) {
	a := OpCounts{Adds: 10, Muls: 5, Invs: 1}
	b := OpCounts{Adds: 3, Muls: 2, Invs: 1}
	if got := a.Add(b); got != (OpCounts{Adds: 13, Muls: 7, Invs: 2}) {
		t.Errorf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (OpCounts{Adds: 7, Muls: 3, Invs: 0}) {
		t.Errorf("Sub = %+v", got)
	}
}
