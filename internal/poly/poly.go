// Package poly implements univariate polynomial arithmetic over a finite
// field: evaluation, multiplication (schoolbook and NTT), division, the
// extended Euclidean algorithm, Lagrange interpolation, and quasilinear
// multi-point evaluation / interpolation via subproduct trees.
//
// The fast paths realize the complexity the paper's Section 6.2 relies on:
// encoding N coded commands and decoding the execution results in
// O(N log^2 N log log N) field operations at a single worker node (the paper
// cites Kedlaya-Umans style fast polynomial arithmetic; over the NTT-friendly
// Goldilocks field the same quasilinear bound is achieved with FFT-based
// multiplication and subproduct trees).
package poly

import (
	"errors"
	"fmt"

	"codedsm/internal/field"
)

// ErrDegreeMismatch reports malformed inputs (e.g. duplicate interpolation
// points).
var ErrDegreeMismatch = errors.New("poly: degree mismatch")

// Poly is a dense univariate polynomial; index i holds the coefficient of
// z^i. The canonical form has no trailing zero coefficients; the zero
// polynomial is the empty (or nil) slice.
type Poly[E comparable] []E

// Ring bundles a field with polynomial operations over it. If the field
// supports NTT (power-of-two roots of unity), multiplication above
// nttThreshold switches to the O(n log n) transform; otherwise schoolbook
// multiplication is used.
type Ring[E comparable] struct {
	f            field.Field[E]
	bulk         field.Bulk[E]     // resolved once: native kernels or adapter
	ntt          field.NTTField[E] // nil when unsupported
	nttThreshold int
}

// defaultNTTThreshold is the product-degree cutoff below which schoolbook
// multiplication wins over transform setup costs.
const defaultNTTThreshold = 64

// NewRing constructs a polynomial ring over f, auto-detecting NTT support
// and resolving the field's bulk-kernel capability once.
func NewRing[E comparable](f field.Field[E]) *Ring[E] {
	r := &Ring[E]{f: f, bulk: field.AsBulk(f), nttThreshold: defaultNTTThreshold}
	if nf, ok := f.(field.NTTField[E]); ok {
		// Probe: the field may wrap a non-NTT field (counting decorator).
		if _, err := nf.RootOfUnity(2); err == nil {
			r.ntt = nf
		}
	}
	return r
}

// Field returns the coefficient field.
func (r *Ring[E]) Field() field.Field[E] { return r.f }

// Bulk returns the field's resolved bulk-kernel capability: the coding hot
// paths (lcc, rs, csm) share this single resolution instead of re-adapting
// per call.
func (r *Ring[E]) Bulk() field.Bulk[E] { return r.bulk }

// HasNTT reports whether fast transform-based multiplication is available.
func (r *Ring[E]) HasNTT() bool { return r.ntt != nil }

// Normalize trims trailing zero coefficients, returning the canonical form.
func (r *Ring[E]) Normalize(p Poly[E]) Poly[E] {
	n := len(p)
	for n > 0 && r.f.IsZero(p[n-1]) {
		n--
	}
	return p[:n]
}

// Deg returns the degree of p, with Deg(0) = -1.
func (r *Ring[E]) Deg(p Poly[E]) int { return len(r.Normalize(p)) - 1 }

// IsZero reports whether p is the zero polynomial.
func (r *Ring[E]) IsZero(p Poly[E]) bool { return len(r.Normalize(p)) == 0 }

// Equal reports whether a and b are the same polynomial.
func (r *Ring[E]) Equal(a, b Poly[E]) bool {
	a, b = r.Normalize(a), r.Normalize(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !r.f.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of p.
func (r *Ring[E]) Clone(p Poly[E]) Poly[E] {
	out := make(Poly[E], len(p))
	copy(out, p)
	return out
}

// Constant returns the degree-0 polynomial c (or zero).
func (r *Ring[E]) Constant(c E) Poly[E] {
	if r.f.IsZero(c) {
		return nil
	}
	return Poly[E]{c}
}

// Eval evaluates p at x with Horner's rule: deg(p) multiplications and
// additions.
func (r *Ring[E]) Eval(p Poly[E], x E) E {
	acc := r.f.Zero()
	for i := len(p) - 1; i >= 0; i-- {
		acc = r.f.Add(r.f.Mul(acc, x), p[i])
	}
	return acc
}

// Add returns a + b.
func (r *Ring[E]) Add(a, b Poly[E]) Poly[E] {
	if len(b) > len(a) {
		a, b = b, a
	}
	out := make(Poly[E], len(a))
	copy(out, a)
	r.bulk.AddVec(out[:len(b)], out[:len(b)], b)
	return r.Normalize(out)
}

// Sub returns a - b.
func (r *Ring[E]) Sub(a, b Poly[E]) Poly[E] {
	n := max(len(a), len(b))
	m := min(len(a), len(b))
	out := make(Poly[E], n)
	r.bulk.SubVec(out[:m], a[:m], b[:m])
	// One operand is exhausted; the tail subtracts against zero, keeping the
	// same operation sequence the plain loop performed.
	zero := r.f.Zero()
	for i := m; i < len(a); i++ {
		out[i] = r.f.Sub(a[i], zero)
	}
	for i := m; i < len(b); i++ {
		out[i] = r.f.Sub(zero, b[i])
	}
	return r.Normalize(out)
}

// MulScalar returns c * p.
func (r *Ring[E]) MulScalar(c E, p Poly[E]) Poly[E] {
	if r.f.IsZero(c) {
		return nil
	}
	out := make(Poly[E], len(p))
	r.bulk.ScaleVec(out, c, p)
	return r.Normalize(out)
}

// MulNaive returns a * b by schoolbook multiplication, O(deg a * deg b).
func (r *Ring[E]) MulNaive(a, b Poly[E]) Poly[E] {
	a, b = r.Normalize(a), r.Normalize(b)
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(Poly[E], len(a)+len(b)-1)
	for i := range out {
		out[i] = r.f.Zero()
	}
	for i, av := range a {
		if r.f.IsZero(av) {
			continue
		}
		r.bulk.ScaleAccVec(out[i:i+len(b)], av, b)
	}
	return r.Normalize(out)
}

// Mul returns a * b, choosing NTT multiplication when available and the
// product is large enough to amortize the transforms.
func (r *Ring[E]) Mul(a, b Poly[E]) Poly[E] {
	a, b = r.Normalize(a), r.Normalize(b)
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	outLen := len(a) + len(b) - 1
	if r.ntt == nil || outLen < r.nttThreshold {
		return r.MulNaive(a, b)
	}
	out, err := r.mulNTT(a, b)
	if err != nil {
		// Product too large for the field's subgroup: fall back.
		return r.MulNaive(a, b)
	}
	return out
}

// DivMod returns quotient and remainder with a = q*b + rem, deg(rem) <
// deg(b). It returns an error if b is zero. Large divisions over NTT fields
// use Newton iteration (O(M(n))); the rest use schoolbook long division.
func (r *Ring[E]) DivMod(a, b Poly[E]) (q, rem Poly[E], err error) {
	a, b = r.Normalize(a), r.Normalize(b)
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("poly: %w", field.ErrDivisionByZero)
	}
	if len(a) < len(b) {
		return nil, r.Clone(a), nil
	}
	return r.divModDispatch(a, b)
}

// divModNaive is schoolbook long division, O((deg a - deg b) * deg b).
func (r *Ring[E]) divModNaive(a, b Poly[E]) (q, rem Poly[E], err error) {
	leadInv, err := r.f.Inv(b[len(b)-1])
	if err != nil {
		return nil, nil, err
	}
	remBuf := r.Clone(a)
	q = make(Poly[E], len(a)-len(b)+1)
	for i := range q {
		q[i] = r.f.Zero()
	}
	for i := len(a) - 1; i >= len(b)-1; i-- {
		if r.f.IsZero(remBuf[i]) {
			continue
		}
		c := r.f.Mul(remBuf[i], leadInv)
		q[i-len(b)+1] = c
		r.bulk.SubScaleVec(remBuf[i-len(b)+1:i+1], c, b)
	}
	return r.Normalize(q), r.Normalize(remBuf[:len(b)-1]), nil
}

// Mod returns a mod b.
func (r *Ring[E]) Mod(a, b Poly[E]) (Poly[E], error) {
	_, rem, err := r.DivMod(a, b)
	return rem, err
}

// Derivative returns the formal derivative p'.
func (r *Ring[E]) Derivative(p Poly[E]) Poly[E] {
	p = r.Normalize(p)
	if len(p) <= 1 {
		return nil
	}
	out := make(Poly[E], len(p)-1)
	for i := 1; i < len(p); i++ {
		// i * p[i] computed by repeated addition would be O(i); use the
		// field embedding of the integer i instead. This is correct in
		// prime fields and in GF(2^m) (where i mod 2 decides).
		out[i-1] = r.f.Mul(r.intToField(i), p[i])
	}
	return r.Normalize(out)
}

// intToField maps a small nonnegative integer into the field by its
// characteristic-aware embedding: n * 1.
func (r *Ring[E]) intToField(n int) E {
	// Double-and-add on the field's One; O(log n) additions.
	acc := r.f.Zero()
	one := r.f.One()
	for bit := 62; bit >= 0; bit-- {
		acc = r.f.Add(acc, acc)
		if n&(1<<bit) != 0 {
			acc = r.f.Add(acc, one)
		}
	}
	return acc
}

// PartialEEA runs the extended Euclidean algorithm on (a, b) and stops at
// the first remainder with degree < stopDeg. It returns that remainder g
// and its cofactor v of b: g = u*a + v*b for some u, so a divides g - v*b.
// The cofactor u of a is never formed — the Gao Reed-Solomon decoder, this
// function's purpose, reads only g and v (message = g / v), and carrying u
// would cost a product and a difference per step. If the remainder
// sequence reaches zero before stopDeg (the gcd has high degree, e.g. when
// decoding the all-zero codeword), g is that zero remainder.
func (r *Ring[E]) PartialEEA(a, b Poly[E], stopDeg int) (g, v Poly[E], err error) {
	r0, r1 := r.Normalize(a), r.Normalize(b)
	v0, v1 := Poly[E](nil), Poly[E]{r.f.One()}
	for len(r0)-1 >= stopDeg {
		if len(r1) == 0 {
			// The zero remainder with its cofactor is the correct final
			// element: 0 = u1*a + v1*b.
			return r1, v1, nil
		}
		q, rem, derr := r.DivMod(r0, r1)
		if derr != nil {
			return nil, nil, derr
		}
		r0, r1 = r1, rem
		v0, v1 = v1, r.Sub(v0, r.Mul(q, v1))
	}
	return r0, v0, nil
}

// Interpolate returns the unique polynomial of degree < len(xs) through the
// points (xs[i], ys[i]) by the classic O(n^2) Lagrange construction. The xs
// must be pairwise distinct.
func (r *Ring[E]) Interpolate(xs, ys []E) (Poly[E], error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("poly: interpolate: %d points, %d values: %w", len(xs), len(ys), ErrDegreeMismatch)
	}
	n := len(xs)
	if n == 0 {
		return nil, nil
	}
	// master(z) = prod (z - xs[i])
	master := r.FromRootsNaive(xs)
	result := Poly[E](nil)
	for i := 0; i < n; i++ {
		// basis_i = master / (z - xs[i]), scaled by 1/basis_i(xs[i]).
		quot, rem, err := r.DivMod(master, Poly[E]{r.f.Neg(xs[i]), r.f.One()})
		if err != nil {
			return nil, err
		}
		if !r.IsZero(rem) {
			return nil, fmt.Errorf("poly: interpolate: internal division not exact")
		}
		denom := r.Eval(quot, xs[i])
		if r.f.IsZero(denom) {
			return nil, fmt.Errorf("poly: interpolate: duplicate point %v: %w", xs[i], ErrDegreeMismatch)
		}
		denomInv, err := r.f.Inv(denom)
		if err != nil {
			return nil, err
		}
		result = r.Add(result, r.MulScalar(r.f.Mul(ys[i], denomInv), quot))
	}
	return result, nil
}

// FromRootsNaive returns prod_i (z - roots[i]) by sequential multiplication,
// O(n^2).
func (r *Ring[E]) FromRootsNaive(roots []E) Poly[E] {
	acc := Poly[E]{r.f.One()}
	for _, root := range roots {
		acc = r.Mul(acc, Poly[E]{r.f.Neg(root), r.f.One()})
	}
	return acc
}

// EvalMany evaluates p at every point, O(n * deg p) via vectorized Horner.
func (r *Ring[E]) EvalMany(p Poly[E], xs []E) []E {
	out := make([]E, len(xs))
	r.EvalManyInto(out, p, xs)
	return out
}

// EvalManyInto is EvalMany writing into caller-owned scratch (len(out) must
// be at least len(xs)): each coefficient is folded into every accumulator
// with one HornerVec kernel call, so the whole evaluation performs
// len(p) kernel dispatches instead of len(p)*len(xs) scalar ones.
func (r *Ring[E]) EvalManyInto(out []E, p Poly[E], xs []E) {
	out = out[:len(xs)]
	for i := range out {
		out[i] = r.f.Zero()
	}
	for i := len(p) - 1; i >= 0; i-- {
		r.bulk.HornerVec(out, xs, p[i])
	}
}
