// Package mvpoly implements sparse multivariate polynomials over a finite
// field. CSM's state transition functions are multivariate polynomials of
// bounded total degree d (Section 4 of the paper); this package provides
// their representation, evaluation, arithmetic, and a small expression
// parser used by the examples.
package mvpoly

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"codedsm/internal/field"
)

// ErrArity reports an evaluation with the wrong number of arguments.
var ErrArity = errors.New("mvpoly: wrong number of arguments")

// Term is coeff * prod_i var_i^Exps[i].
type Term[E comparable] struct {
	Coeff E
	Exps  []int
}

// Poly is a sparse multivariate polynomial in a fixed number of variables.
// The zero value is the zero polynomial in zero variables; construct
// non-trivial polynomials with FromTerms, Constant, Variable, or Parse.
// Canonical form: terms sorted by exponent vector, no zero coefficients, no
// duplicate exponent vectors.
type Poly[E comparable] struct {
	nvars int
	terms []Term[E]
}

// Zero returns the zero polynomial in nvars variables.
func Zero[E comparable](nvars int) Poly[E] {
	return Poly[E]{nvars: nvars}
}

// Constant returns the constant polynomial c in nvars variables.
func Constant[E comparable](f field.Field[E], nvars int, c E) Poly[E] {
	if f.IsZero(c) {
		return Zero[E](nvars)
	}
	return Poly[E]{nvars: nvars, terms: []Term[E]{{Coeff: c, Exps: make([]int, nvars)}}}
}

// Variable returns the polynomial consisting of the single variable with
// the given index.
func Variable[E comparable](f field.Field[E], nvars, index int) (Poly[E], error) {
	if index < 0 || index >= nvars {
		return Poly[E]{}, fmt.Errorf("mvpoly: variable index %d out of range [0,%d)", index, nvars)
	}
	exps := make([]int, nvars)
	exps[index] = 1
	return Poly[E]{nvars: nvars, terms: []Term[E]{{Coeff: f.One(), Exps: exps}}}, nil
}

// FromTerms builds a canonical polynomial from arbitrary terms: exponent
// vectors must have length nvars; duplicate monomials are merged and zero
// coefficients dropped.
func FromTerms[E comparable](f field.Field[E], nvars int, terms []Term[E]) (Poly[E], error) {
	for i, t := range terms {
		if len(t.Exps) != nvars {
			return Poly[E]{}, fmt.Errorf("mvpoly: term %d has %d exponents, want %d", i, len(t.Exps), nvars)
		}
		for _, e := range t.Exps {
			if e < 0 {
				return Poly[E]{}, fmt.Errorf("mvpoly: term %d has negative exponent", i)
			}
		}
	}
	return canonicalize(f, nvars, terms), nil
}

func canonicalize[E comparable](f field.Field[E], nvars int, terms []Term[E]) Poly[E] {
	merged := make(map[string]Term[E], len(terms))
	for _, t := range terms {
		key := expsKey(t.Exps)
		if prev, ok := merged[key]; ok {
			prev.Coeff = f.Add(prev.Coeff, t.Coeff)
			merged[key] = prev
		} else {
			exps := make([]int, len(t.Exps))
			copy(exps, t.Exps)
			merged[key] = Term[E]{Coeff: t.Coeff, Exps: exps}
		}
	}
	out := make([]Term[E], 0, len(merged))
	for _, t := range merged {
		if !f.IsZero(t.Coeff) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return expsLess(out[i].Exps, out[j].Exps) })
	return Poly[E]{nvars: nvars, terms: out}
}

func expsKey(exps []int) string {
	var b strings.Builder
	for _, e := range exps {
		fmt.Fprintf(&b, "%d,", e)
	}
	return b.String()
}

func expsLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// NumVars returns the number of variables.
func (p Poly[E]) NumVars() int { return p.nvars }

// Terms returns a copy of the canonical term list.
func (p Poly[E]) Terms() []Term[E] {
	out := make([]Term[E], len(p.terms))
	for i, t := range p.terms {
		exps := make([]int, len(t.Exps))
		copy(exps, t.Exps)
		out[i] = Term[E]{Coeff: t.Coeff, Exps: exps}
	}
	return out
}

// IsZero reports whether p is the zero polynomial.
func (p Poly[E]) IsZero() bool { return len(p.terms) == 0 }

// TotalDegree returns the maximum total degree over all terms; the zero
// polynomial has degree -1 by convention, constants degree 0.
func (p Poly[E]) TotalDegree() int {
	if len(p.terms) == 0 {
		return -1
	}
	maxDeg := 0
	for _, t := range p.terms {
		d := 0
		for _, e := range t.Exps {
			d += e
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// Eval evaluates p at the given point. len(args) must equal NumVars.
func (p Poly[E]) Eval(f field.Field[E], args []E) (E, error) {
	var zero E
	if len(args) != p.nvars {
		return zero, fmt.Errorf("mvpoly: eval with %d args, want %d: %w", len(args), p.nvars, ErrArity)
	}
	if c, ok := f.(*field.Counting[E]); ok {
		f = c.Charged(p.evalCost())
	}
	one, acc := f.One(), f.Zero()
	for _, t := range p.terms {
		v, unit := t.Coeff, f.Equal(t.Coeff, one)
		for i, e := range t.Exps {
			if e == 0 {
				continue
			}
			x := args[i]
			if e > 1 {
				x = field.Exp(f, x, uint64(e))
			}
			if unit {
				v, unit = x, false
			} else {
				v = f.Mul(v, x)
			}
		}
		acc = f.Add(acc, v)
	}
	return acc, nil
}

// evalCost is what Eval counts: one addition per term and, per variable
// with exponent e > 0, the popcount(e) + bitlen(e) multiplications of
// field.Exp's square-and-multiply and the one that multiplies its power
// in. A counting field is charged that once per evaluation, and the
// arithmetic runs on the field it wraps, which skips the multiplications
// by a coefficient of 1 and the powers to an exponent of 1.
func (p Poly[E]) evalCost() field.OpCounts {
	ops := field.OpCounts{Adds: uint64(len(p.terms))}
	for _, t := range p.terms {
		for _, e := range t.Exps {
			if e > 0 {
				ops.Muls += uint64(bits.OnesCount(uint(e)) + bits.Len(uint(e)) + 1)
			}
		}
	}
	return ops
}

// Add returns p + q; the operand variable counts must match.
func (p Poly[E]) Add(f field.Field[E], q Poly[E]) (Poly[E], error) {
	if p.nvars != q.nvars {
		return Poly[E]{}, fmt.Errorf("mvpoly: add with %d vs %d variables: %w", p.nvars, q.nvars, ErrArity)
	}
	return canonicalize(f, p.nvars, append(p.Terms(), q.Terms()...)), nil
}

// Sub returns p - q.
func (p Poly[E]) Sub(f field.Field[E], q Poly[E]) (Poly[E], error) {
	neg := q.Scale(f, f.Neg(f.One()))
	return p.Add(f, neg)
}

// Scale returns c * p.
func (p Poly[E]) Scale(f field.Field[E], c E) Poly[E] {
	terms := p.Terms()
	for i := range terms {
		terms[i].Coeff = f.Mul(c, terms[i].Coeff)
	}
	return canonicalize(f, p.nvars, terms)
}

// Mul returns p * q; the operand variable counts must match.
func (p Poly[E]) Mul(f field.Field[E], q Poly[E]) (Poly[E], error) {
	if p.nvars != q.nvars {
		return Poly[E]{}, fmt.Errorf("mvpoly: mul with %d vs %d variables: %w", p.nvars, q.nvars, ErrArity)
	}
	out := make([]Term[E], 0, len(p.terms)*len(q.terms))
	for _, a := range p.terms {
		for _, b := range q.terms {
			exps := make([]int, p.nvars)
			for i := range exps {
				exps[i] = a.Exps[i] + b.Exps[i]
			}
			out = append(out, Term[E]{Coeff: f.Mul(a.Coeff, b.Coeff), Exps: exps})
		}
	}
	return canonicalize(f, p.nvars, out), nil
}

// Equal reports whether p and q are identical polynomials.
func (p Poly[E]) Equal(f field.Field[E], q Poly[E]) bool {
	if p.nvars != q.nvars || len(p.terms) != len(q.terms) {
		return false
	}
	for i := range p.terms {
		if !f.Equal(p.terms[i].Coeff, q.terms[i].Coeff) {
			return false
		}
		for j := range p.terms[i].Exps {
			if p.terms[i].Exps[j] != q.terms[i].Exps[j] {
				return false
			}
		}
	}
	return true
}

// Format renders p with the given variable names (defaulting to v0, v1, ...).
func (p Poly[E]) Format(f field.Field[E], names []string) string {
	if len(p.terms) == 0 {
		return "0"
	}
	name := func(i int) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("v%d", i)
	}
	var parts []string
	for _, t := range p.terms {
		var b strings.Builder
		coeff := f.Uint64(t.Coeff)
		wrote := false
		if coeff != 1 || allZero(t.Exps) {
			fmt.Fprintf(&b, "%d", coeff)
			wrote = true
		}
		for i, e := range t.Exps {
			if e == 0 {
				continue
			}
			if wrote {
				b.WriteString("*")
			}
			b.WriteString(name(i))
			if e > 1 {
				fmt.Fprintf(&b, "^%d", e)
			}
			wrote = true
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, " + ")
}

func allZero(exps []int) bool {
	for _, e := range exps {
		if e != 0 {
			return false
		}
	}
	return true
}
