package field

import (
	"math/big"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func bigMod() *big.Int { return new(big.Int).SetUint64(GoldilocksModulus) }

// refAdd/refSub/refMul compute the expected results with math/big.
func refAdd(a, b uint64) uint64 {
	x := new(big.Int).SetUint64(a)
	y := new(big.Int).SetUint64(b)
	x.Add(x, y).Mod(x, bigMod())
	return x.Uint64()
}

func refSub(a, b uint64) uint64 {
	x := new(big.Int).SetUint64(a)
	y := new(big.Int).SetUint64(b)
	x.Sub(x, y).Mod(x, bigMod())
	return x.Uint64()
}

func refMul(a, b uint64) uint64 {
	x := new(big.Int).SetUint64(a)
	y := new(big.Int).SetUint64(b)
	x.Mul(x, y).Mod(x, bigMod())
	return x.Uint64()
}

func TestGoldilocksEdgeCases(t *testing.T) {
	g := NewGoldilocks()
	p := GoldilocksModulus
	cases := []uint64{0, 1, 2, goldEpsilon - 1, goldEpsilon, goldEpsilon + 1,
		1 << 32, (1 << 32) + 1, p - 2, p - 1, p / 2, p/2 + 1}
	for _, a := range cases {
		for _, b := range cases {
			if got, want := g.Add(a, b), refAdd(a, b); got != want {
				t.Errorf("Add(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := g.Sub(a, b), refSub(a, b); got != want {
				t.Errorf("Sub(%d,%d) = %d, want %d", a, b, got, want)
			}
			if got, want := g.Mul(a, b), refMul(a, b); got != want {
				t.Errorf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestGoldilocksAgainstBigInt(t *testing.T) {
	g := NewGoldilocks()
	cfg := &quick.Config{MaxCount: 2000}
	reduce := func(v uint64) uint64 { return g.FromUint64(v % GoldilocksModulus) }
	if err := quick.Check(func(a, b uint64) bool {
		a, b = reduce(a), reduce(b)
		return g.Add(a, b) == refAdd(a, b) &&
			g.Sub(a, b) == refSub(a, b) &&
			g.Mul(a, b) == refMul(a, b)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGoldilocksFieldAxioms(t *testing.T) {
	testFieldAxioms(t, NewGoldilocks(), 1)
}

func TestGoldilocksInv(t *testing.T) {
	g := NewGoldilocks()
	if _, err := g.Inv(0); err == nil {
		t.Fatal("Inv(0) should fail")
	}
	r := rand.New(rand.NewPCG(1, 2))
	as := []uint64{1, 2, GoldilocksModulus - 1, GoldilocksModulus - 2, 1 << 32, goldEpsilon}
	for i := 0; i < 200; i++ {
		as = append(as, g.Rand(r))
	}
	for _, a := range as {
		if a == 0 {
			continue
		}
		inv, err := g.Inv(a)
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if g.Mul(a, inv) != 1 {
			t.Fatalf("a * Inv(a) != 1 for a=%d", a)
		}
		if want := goldExp(a, GoldilocksModulus-2); inv != want {
			t.Fatalf("Inv(%d) = %d, square-and-multiply a^(p-2) = %d", a, inv, want)
		}
	}
}

func TestGoldilocksRootOfUnity(t *testing.T) {
	g := NewGoldilocks()
	for _, log2 := range []int{0, 1, 2, 3, 8, 16, 32} {
		order := uint64(1) << log2
		w, err := g.RootOfUnity(order)
		if err != nil {
			t.Fatalf("RootOfUnity(2^%d): %v", log2, err)
		}
		// w^order == 1 and w^(order/2) != 1 (primitivity).
		if got := Exp[uint64](g, w, order); got != 1 {
			t.Errorf("w^order = %d, want 1 (order 2^%d)", got, log2)
		}
		if order > 1 {
			if got := Exp[uint64](g, w, order/2); got == 1 {
				t.Errorf("w^(order/2) = 1, root of order 2^%d is not primitive", log2)
			}
		}
	}
	if _, err := g.RootOfUnity(3); err == nil {
		t.Error("RootOfUnity(3) should fail: not a power of two")
	}
	if _, err := g.RootOfUnity(1 << 33); err == nil {
		t.Error("RootOfUnity(2^33) should fail: exceeds subgroup")
	}
	if _, err := g.RootOfUnity(0); err == nil {
		t.Error("RootOfUnity(0) should fail")
	}
}

func TestGoldilocksElements(t *testing.T) {
	g := NewGoldilocks()
	elems, err := g.Elements(100)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool, len(elems))
	for _, e := range elems {
		if seen[e] {
			t.Fatalf("duplicate element %d", e)
		}
		seen[e] = true
	}
	if _, err := g.Elements(-1); err == nil {
		t.Error("Elements(-1) should fail")
	}
}

func TestGoldilocksFromUint64Reduces(t *testing.T) {
	g := NewGoldilocks()
	if got := g.FromUint64(GoldilocksModulus); got != 0 {
		t.Errorf("FromUint64(p) = %d, want 0", got)
	}
	if got := g.FromUint64(GoldilocksModulus + 5); got != 5 {
		t.Errorf("FromUint64(p+5) = %d, want 5", got)
	}
}

// testFieldAxioms checks the field axioms with property-based testing.
// sampleSeed varies the RNG stream between fields.
func testFieldAxioms[E comparable](t *testing.T, f Field[E], sampleSeed uint64) {
	t.Helper()
	r := rand.New(rand.NewPCG(sampleSeed, 42))
	gen := func() E { return f.Rand(r) }
	for i := 0; i < 500; i++ {
		a, b, c := gen(), gen(), gen()
		if !f.Equal(f.Add(a, b), f.Add(b, a)) {
			t.Fatal("addition not commutative")
		}
		if !f.Equal(f.Mul(a, b), f.Mul(b, a)) {
			t.Fatal("multiplication not commutative")
		}
		if !f.Equal(f.Add(f.Add(a, b), c), f.Add(a, f.Add(b, c))) {
			t.Fatal("addition not associative")
		}
		if !f.Equal(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c))) {
			t.Fatal("multiplication not associative")
		}
		if !f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c))) {
			t.Fatal("multiplication does not distribute over addition")
		}
		if !f.Equal(f.Add(a, f.Zero()), a) {
			t.Fatal("zero is not additive identity")
		}
		if !f.Equal(f.Mul(a, f.One()), a) {
			t.Fatal("one is not multiplicative identity")
		}
		if !f.Equal(f.Add(a, f.Neg(a)), f.Zero()) {
			t.Fatal("a + (-a) != 0")
		}
		if !f.Equal(f.Sub(a, b), f.Add(a, f.Neg(b))) {
			t.Fatal("a - b != a + (-b)")
		}
		if !f.IsZero(a) {
			inv, err := f.Inv(a)
			if err != nil {
				t.Fatalf("Inv failed on nonzero element: %v", err)
			}
			if !f.Equal(f.Mul(a, inv), f.One()) {
				t.Fatal("a * a^-1 != 1")
			}
		}
	}
}

func BenchmarkGoldilocksMul(b *testing.B) {
	g := NewGoldilocks()
	x, y := uint64(0x123456789abcdef), uint64(0xfedcba987654321)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = g.Mul(x, y)
	}
	sinkUint64 = x
}

func BenchmarkGoldilocksInv(b *testing.B) {
	g := NewGoldilocks()
	x := uint64(0x123456789abcdef)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, _ = g.Inv(x)
	}
	sinkUint64 = x
}

var sinkUint64 uint64
