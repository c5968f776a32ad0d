package mvpoly

import (
	"errors"
	"math/rand/v2"
	"testing"

	"codedsm/internal/field"
)

var gold = field.NewGoldilocks()

func mustParse(t *testing.T, expr string, vars []string) Poly[uint64] {
	t.Helper()
	p, err := Parse[uint64](gold, expr, vars)
	if err != nil {
		t.Fatalf("Parse(%q): %v", expr, err)
	}
	return p
}

func evalAt(t *testing.T, p Poly[uint64], args ...uint64) uint64 {
	t.Helper()
	v, err := p.Eval(gold, args)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestConstructors(t *testing.T) {
	z := Zero[uint64](3)
	if !z.IsZero() || z.NumVars() != 3 || z.TotalDegree() != -1 {
		t.Error("Zero malformed")
	}
	c := Constant[uint64](gold, 2, 7)
	if c.TotalDegree() != 0 || evalAt(t, c, 1, 2) != 7 {
		t.Error("Constant malformed")
	}
	if !Constant[uint64](gold, 2, 0).IsZero() {
		t.Error("Constant(0) should be zero")
	}
	v, err := Variable[uint64](gold, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if evalAt(t, v, 10, 20) != 20 {
		t.Error("Variable eval wrong")
	}
	if _, err := Variable[uint64](gold, 2, 2); err == nil {
		t.Error("out-of-range variable should fail")
	}
}

func TestFromTermsCanonicalization(t *testing.T) {
	// 3*x*y + 2*x*y - 5*x*y = 0 should vanish entirely.
	terms := []Term[uint64]{
		{Coeff: 3, Exps: []int{1, 1}},
		{Coeff: 2, Exps: []int{1, 1}},
		{Coeff: gold.Neg(5), Exps: []int{1, 1}},
	}
	p, err := FromTerms[uint64](gold, 2, terms)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsZero() {
		t.Errorf("expected cancellation, got %s", p.Format(gold, nil))
	}
	if _, err := FromTerms[uint64](gold, 2, []Term[uint64]{{Coeff: 1, Exps: []int{1}}}); err == nil {
		t.Error("wrong exps length should fail")
	}
	if _, err := FromTerms[uint64](gold, 1, []Term[uint64]{{Coeff: 1, Exps: []int{-1}}}); err == nil {
		t.Error("negative exponent should fail")
	}
}

func TestEvalArity(t *testing.T) {
	p := mustParse(t, "s0 + x0", []string{"s0", "x0"})
	if _, err := p.Eval(gold, []uint64{1}); !errors.Is(err, ErrArity) {
		t.Error("wrong arity should fail")
	}
}

func TestParseAndEval(t *testing.T) {
	vars := []string{"s0", "s1", "x0"}
	cases := []struct {
		expr string
		args []uint64
		want uint64
	}{
		{"s0 + x0", []uint64{3, 0, 4}, 7},
		{"s0*x0", []uint64{3, 0, 4}, 12},
		{"s0^2 + 2*s0*x0 + x0^2", []uint64{3, 0, 4}, 49},
		{"(s0 + x0)^2", []uint64{3, 0, 4}, 49},
		{"5", []uint64{1, 2, 3}, 5},
		{"s1 - s0", []uint64{3, 10, 0}, 7},
		{"-s0 + x0", []uint64{3, 0, 10}, 7},
		{"2*(s0 + s1)*(x0 - 1)", []uint64{1, 2, 3}, 12},
		{"s0^0", []uint64{9, 9, 9}, 1},
		{"s0 - s0", []uint64{5, 0, 0}, 0},
	}
	for _, tc := range cases {
		p := mustParse(t, tc.expr, vars)
		if got := evalAt(t, p, tc.args...); got != tc.want {
			t.Errorf("%q at %v = %d, want %d", tc.expr, tc.args, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	vars := []string{"x"}
	for _, expr := range []string{
		"", "x +", "y", "x^", "x^y", "(x", "x)", "3x", "x**x", "@", "x^-1", "x + + x",
	} {
		if _, err := Parse[uint64](gold, expr, vars); err == nil {
			t.Errorf("Parse(%q) should fail", expr)
		}
	}
	if _, err := Parse[uint64](gold, "x", []string{"x", "x"}); err == nil {
		t.Error("duplicate variable names should fail")
	}
	if _, err := Parse[uint64](gold, "x", []string{""}); err == nil {
		t.Error("empty variable name should fail")
	}
}

func TestTotalDegree(t *testing.T) {
	vars := []string{"s", "x"}
	cases := []struct {
		expr string
		deg  int
	}{
		{"s + x", 1},
		{"s*x", 2},
		{"s^2*x + x", 3},
		{"7", 0},
		{"s - s", -1},
	}
	for _, tc := range cases {
		p := mustParse(t, tc.expr, vars)
		if got := p.TotalDegree(); got != tc.deg {
			t.Errorf("deg(%q) = %d, want %d", tc.expr, got, tc.deg)
		}
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	// (p+q)(r) == p(r)+q(r), (p*q)(r) == p(r)*q(r) under random points.
	vars := []string{"a", "b", "c"}
	p := mustParse(t, "a^2 + b*c", vars)
	q := mustParse(t, "c - 2*a*b", vars)
	sum, err := p.Add(gold, q)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := p.Mul(gold, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		args := field.RandVec[uint64](gold, rng, 3)
		pv, qv := evalAt(t, p, args...), evalAt(t, q, args...)
		if got := evalAt(t, sum, args...); got != gold.Add(pv, qv) {
			t.Fatal("(p+q)(r) != p(r)+q(r)")
		}
		if got := evalAt(t, prod, args...); got != gold.Mul(pv, qv) {
			t.Fatal("(p*q)(r) != p(r)*q(r)")
		}
	}
	if _, err := p.Add(gold, Zero[uint64](2)); !errors.Is(err, ErrArity) {
		t.Error("mismatched nvars Add should fail")
	}
	if _, err := p.Mul(gold, Zero[uint64](2)); !errors.Is(err, ErrArity) {
		t.Error("mismatched nvars Mul should fail")
	}
}

func TestEqualAndTerms(t *testing.T) {
	vars := []string{"x", "y"}
	a := mustParse(t, "x + y^2", vars)
	b := mustParse(t, "y^2 + x", vars)
	if !a.Equal(gold, b) {
		t.Error("order-independent equality failed")
	}
	c := mustParse(t, "x + y", vars)
	if a.Equal(gold, c) {
		t.Error("distinct polynomials compare equal")
	}
	terms := a.Terms()
	terms[0].Exps[0] = 99
	if !a.Equal(gold, b) {
		t.Error("Terms() exposes internal state")
	}
}

func TestFormat(t *testing.T) {
	vars := []string{"s", "x"}
	p := mustParse(t, "s^2 + 3*x + 1", vars)
	got := p.Format(gold, vars)
	want := "1 + 3*x + s^2"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	if Zero[uint64](2).Format(gold, vars) != "0" {
		t.Error("zero format")
	}
	// Unnamed variables fall back to vN.
	if got := p.Format(gold, nil); got != "1 + 3*v1 + v0^2" {
		t.Errorf("Format(nil) = %q", got)
	}
}

func TestGF2mPolynomials(t *testing.T) {
	f, err := field.NewGF2m(8)
	if err != nil {
		t.Fatal(err)
	}
	// Over characteristic 2: (x+y)^2 = x^2 + y^2.
	vars := []string{"x", "y"}
	sq, err := Parse[uint64](f, "(x + y)^2", vars)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Parse[uint64](f, "x^2 + y^2", vars)
	if err != nil {
		t.Fatal(err)
	}
	if !sq.Equal(f, want) {
		t.Errorf("freshman's dream fails over GF(2^8): %s", sq.Format(f, vars))
	}
}

// perCallEval is Eval before it charged a counting field once per
// evaluation: every scalar operation through f, a power through
// field.Exp for every positive exponent, the coefficient always
// multiplied in. It is the reference for values and counts.
func perCallEval[E comparable](f field.Field[E], p Poly[E], args []E) E {
	acc := f.Zero()
	for _, t := range p.terms {
		v := t.Coeff
		for i, e := range t.Exps {
			if e > 0 {
				v = f.Mul(v, field.Exp(f, args[i], uint64(e)))
			}
		}
		acc = f.Add(acc, v)
	}
	return acc
}

// TestEvalChargesPerCallCounts: on seeded random polynomials with
// exponents 0-5 and coefficients that are often 1, Eval over a counting
// field returns what the per-call evaluation returns and charges exactly
// the operations it counts, over Goldilocks and over GF(2^8).
func TestEvalChargesPerCallCounts(t *testing.T) {
	gf, err := field.NewGF2m(8)
	if err != nil {
		t.Fatal(err)
	}
	checkEvalCounts(t, gold)
	checkEvalCounts(t, gf)
}

func checkEvalCounts(t *testing.T, base field.Field[uint64]) {
	t.Helper()
	rng := rand.New(rand.NewPCG(26, 5))
	fast, ref := field.NewCounting(base), field.NewCounting(base)
	for trial := range 200 {
		nvars := 1 + rng.IntN(4)
		terms := make([]Term[uint64], 1+rng.IntN(5))
		for i := range terms {
			terms[i].Coeff = base.One()
			if rng.IntN(2) == 0 {
				terms[i].Coeff = base.Rand(rng)
			}
			terms[i].Exps = make([]int, nvars)
			for j := range terms[i].Exps {
				terms[i].Exps[j] = rng.IntN(6)
			}
		}
		p, err := FromTerms(base, nvars, terms)
		if err != nil {
			t.Fatal(err)
		}
		args := field.RandVec(base, rng, nvars)
		got, err := p.Eval(fast, args)
		if err != nil {
			t.Fatal(err)
		}
		if want := perCallEval(ref, p, args); got != want {
			t.Fatalf("%s trial %d: Eval %v, per-call evaluation %v", base.Name(), trial, got, want)
		}
		if fast.Counts() != ref.Counts() {
			t.Fatalf("%s trial %d: Eval charged %+v in all, per-call evaluation %+v", base.Name(), trial, fast.Counts(), ref.Counts())
		}
	}
}
