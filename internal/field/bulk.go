package field

import "fmt"

// Bulk is the optional bulk-arithmetic capability of a Field: vector kernels
// that process whole slices per call instead of one element per dynamic
// interface dispatch. The coding hot paths (Lagrange encode, Reed-Solomon
// component decodes, subproduct-tree evaluation, Gaussian elimination) issue
// one kernel call per row/column, so a field that implements Bulk natively —
// Goldilocks and GF(2^m) do, with branchless concrete uint64 loops — removes
// the per-element virtual call that otherwise dominates the constant factor
// of the paper's O(N) per-node cost.
//
// Fields that do not implement Bulk keep working through AsBulk's generic
// adapter, which performs exactly the per-element Field calls the scalar
// loops it replaces would have made: wrapped in the Counting decorator, the
// generic path reports bit-identical operation totals.
//
// Kernel contracts (all kernels):
//   - dst, a and b (where present) must have identical lengths; kernels
//     panic on shorter dst, matching the scalar loops they replace.
//   - dst may alias a and/or b; kernels read a[i]/b[i] before writing dst[i].
//   - Elements must be canonical on input and are canonical on output.
type Bulk[E comparable] interface {
	Field[E]
	// AddVec sets dst[i] = a[i] + b[i].
	AddVec(dst, a, b []E)
	// SubVec sets dst[i] = a[i] - b[i].
	SubVec(dst, a, b []E)
	// MulVec sets dst[i] = a[i] * b[i].
	MulVec(dst, a, b []E)
	// ScaleVec sets dst[i] = c * a[i].
	ScaleVec(dst []E, c E, a []E)
	// ScaleAccVec sets dst[i] = dst[i] + c*a[i] (axpy).
	ScaleAccVec(dst []E, c E, a []E)
	// LinCombAccVec sets dst[i] = dst[i] + sum_k cs[k]*vecs[k][i] over the
	// len(vecs) terms: the inner kernel of the Lagrange encode and of the
	// verified-subset decode. It is the ScaleAccVec chain over the terms,
	// element for element, in one call; cs must hold at least len(vecs)
	// coefficients and every vecs[k] at least len(dst) elements. dst may
	// alias any term: all terms are read at i before dst[i] is written.
	LinCombAccVec(dst, cs []E, vecs [][]E)
	// LinCombAccRows sets dst[i] = dst[i] + sum_k cs[k]*rows[idx[k]][i]
	// over the len(idx) terms: LinCombAccVec over the rows idx names, read
	// in place, so a caller that picks a subset of a table's rows builds no
	// slice of them. cs must hold at least len(idx) coefficients and every
	// named row at least len(dst) elements; dst may alias any of them.
	LinCombAccRows(dst, cs []E, rows [][]E, idx []int)
	// MatVec sets dst[i] = sum_t m[i*len(v)+t]*v[t]: the matrix-vector
	// product of the row-major len(dst) x len(v) matrix m with v, the
	// verified-subset check's prediction of every unchecked row at once.
	// Each element is the ScaleVec-then-LinCombAccVec chain over the row's
	// terms, in one call. Unlike the other kernels, dst must alias neither
	// m nor v: v is read whole for every row.
	MatVec(dst, m, v []E)
	// SubScaleVec sets dst[i] = dst[i] - c*a[i]: the row-elimination kernel
	// of Gaussian elimination and schoolbook polynomial division.
	SubScaleVec(dst []E, c E, a []E)
	// DotVec returns sum_i a[i]*b[i], or zero for empty vectors.
	DotVec(a, b []E) E
	// SubScalarVec sets dst[i] = a[i] - c.
	SubScalarVec(dst, a []E, c E)
	// ScalarSubVec sets dst[i] = c - a[i].
	ScalarSubVec(dst []E, c E, a []E)
	// HornerVec performs one vectorized Horner step: acc[i] = acc[i]*xs[i] + c.
	// Folding a polynomial's coefficients from the highest down evaluates it
	// at every xs point simultaneously.
	HornerVec(acc, xs []E, c E)
	// BatchInvInto writes the multiplicative inverses of xs into dst using
	// Montgomery's trick (one inversion plus 3(n-1) multiplications),
	// allocation-free. Unlike the other kernels, dst must NOT alias xs: the
	// forward product sweep stores its prefixes in dst while the backward
	// sweep still needs the original inputs. It returns ErrDivisionByZero
	// (wrapped, identifying the first offending index) if any element is
	// zero; dst's contents are unspecified on error.
	BatchInvInto(dst, xs []E) error
}

// AsBulk resolves the bulk capability of f: the field itself when it
// implements Bulk (Goldilocks, GF(2^m), and Counting around either), or a
// generic adapter that routes every kernel through f's scalar methods.
// Resolve once and cache the result — adapting a plain field allocates.
func AsBulk[E comparable](f Field[E]) Bulk[E] {
	if b, ok := f.(Bulk[E]); ok {
		return b
	}
	return genericBulk[E]{f}
}

// genericBulk adapts any Field to Bulk with scalar per-element calls. Each
// kernel mirrors, call for call, the loop it replaced, so operation-counting
// decorators observe unchanged totals on this path.
type genericBulk[E comparable] struct {
	Field[E]
}

func (g genericBulk[E]) AddVec(dst, a, b []E) {
	for i := range a {
		dst[i] = g.Add(a[i], b[i])
	}
}

func (g genericBulk[E]) SubVec(dst, a, b []E) {
	for i := range a {
		dst[i] = g.Sub(a[i], b[i])
	}
}

func (g genericBulk[E]) MulVec(dst, a, b []E) {
	for i := range a {
		dst[i] = g.Mul(a[i], b[i])
	}
}

func (g genericBulk[E]) ScaleVec(dst []E, c E, a []E) {
	for i := range a {
		dst[i] = g.Mul(c, a[i])
	}
}

func (g genericBulk[E]) ScaleAccVec(dst []E, c E, a []E) {
	for i := range a {
		dst[i] = g.Add(dst[i], g.Mul(c, a[i]))
	}
}

// LinCombAccVec makes the ScaleAccVec chain's Field calls, in the chain's
// order per element, but finishes each element before writing it so a term
// may alias dst.
func (g genericBulk[E]) LinCombAccVec(dst, cs []E, vecs [][]E) {
	for i := range dst {
		acc := dst[i]
		for k, v := range vecs {
			acc = g.Add(acc, g.Mul(cs[k], v[i]))
		}
		dst[i] = acc
	}
}

// LinCombAccRows makes LinCombAccVec's Field calls over the named rows.
func (g genericBulk[E]) LinCombAccRows(dst, cs []E, rows [][]E, idx []int) {
	for i := range dst {
		acc := dst[i]
		for k, r := range idx {
			acc = g.Add(acc, g.Mul(cs[k], rows[r][i]))
		}
		dst[i] = acc
	}
}

// MatVec makes the ScaleVec-then-LinCombAccVec chain's Field calls.
func (g genericBulk[E]) MatVec(dst, m, v []E) {
	for i := range dst {
		acc := g.Zero()
		for t, x := range v {
			if p := g.Mul(m[i*len(v)+t], x); t == 0 {
				acc = p
			} else {
				acc = g.Add(acc, p)
			}
		}
		dst[i] = acc
	}
}

func (g genericBulk[E]) SubScaleVec(dst []E, c E, a []E) {
	for i := range a {
		dst[i] = g.Sub(dst[i], g.Mul(c, a[i]))
	}
}

func (g genericBulk[E]) DotVec(a, b []E) E {
	acc := g.Zero()
	for i := range a {
		acc = g.Add(acc, g.Mul(a[i], b[i]))
	}
	return acc
}

func (g genericBulk[E]) SubScalarVec(dst, a []E, c E) {
	for i := range a {
		dst[i] = g.Sub(a[i], c)
	}
}

func (g genericBulk[E]) ScalarSubVec(dst []E, c E, a []E) {
	for i := range a {
		dst[i] = g.Sub(c, a[i])
	}
}

func (g genericBulk[E]) HornerVec(acc, xs []E, c E) {
	for i := range acc {
		acc[i] = g.Add(g.Mul(acc[i], xs[i]), c)
	}
}

func (g genericBulk[E]) BatchInvInto(dst, xs []E) error {
	return batchInvInto[E](g.Field, dst, xs)
}

// batchInvInto is the shared Montgomery-trick implementation: dst first
// accumulates the prefix products, then the backward sweep rewrites it with
// the inverses (which is why dst must not alias xs).
func batchInvInto[E comparable](f Field[E], dst, xs []E) error {
	n := len(xs)
	if len(dst) < n {
		panic(fmt.Sprintf("field: BatchInvInto dst length %d < %d", len(dst), n))
	}
	if n == 0 {
		return nil
	}
	acc := f.One()
	for i, x := range xs {
		if f.IsZero(x) {
			return fmt.Errorf("field: batch inverse of zero at index %d: %w", i, ErrDivisionByZero)
		}
		dst[i] = acc
		acc = f.Mul(acc, x)
	}
	inv, err := f.Inv(acc)
	if err != nil {
		return err
	}
	for i := n - 1; i >= 0; i-- {
		dst[i] = f.Mul(inv, dst[i])
		inv = f.Mul(inv, xs[i])
	}
	return nil
}

// zeroIndex returns the index of the first zero element, or -1. Used by
// counting fields to charge BatchInvInto's error path exactly like the
// scalar algorithm (i multiplications before the zero at index i).
func zeroIndex[E comparable](f Field[E], xs []E) int {
	for i, x := range xs {
		if f.IsZero(x) {
			return i
		}
	}
	return -1
}
