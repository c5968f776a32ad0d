// Package field provides the finite-field arithmetic underlying the Coded
// State Machine: a fast NTT-friendly prime field GF(p) with p = 2^64-2^32+1
// (the "Goldilocks" prime), binary extension fields GF(2^m) used for Boolean
// state machines (Appendix A of the paper), and an operation-counting
// decorator used to measure throughput in the unit the paper defines —
// "number of additions and multiplications in F" (Section 2.2).
package field

import (
	"errors"
	"fmt"
	"math/rand/v2"
)

// ErrDivisionByZero is returned by Inv and Div when the divisor is zero.
var ErrDivisionByZero = errors.New("field: division by zero")

// Field is the abstract finite field over elements of type E. All CSM coding
// machinery (polynomials, Reed-Solomon, Lagrange coding) is generic over a
// Field so that the same code runs over GF(p) for arithmetic state machines
// and over GF(2^m) for Boolean state machines.
//
// Implementations must keep elements canonical: two equal field values must
// compare equal with ==, so E can be used as a map key and with
// reflect.DeepEqual in tests.
type Field[E comparable] interface {
	// Name identifies the field, e.g. "GF(2^64-2^32+1)".
	Name() string
	// Zero returns the additive identity.
	Zero() E
	// One returns the multiplicative identity.
	One() E
	// FromUint64 maps v into the field (reduced as appropriate).
	FromUint64(v uint64) E
	// Uint64 returns the canonical integer representation of e.
	Uint64(e E) uint64
	// Add returns a + b.
	Add(a, b E) E
	// Sub returns a - b.
	Sub(a, b E) E
	// Neg returns -a.
	Neg(a E) E
	// Mul returns a * b.
	Mul(a, b E) E
	// Inv returns the multiplicative inverse of a, or ErrDivisionByZero.
	Inv(a E) (E, error)
	// Equal reports whether a == b.
	Equal(a, b E) bool
	// IsZero reports whether a is the additive identity.
	IsZero(a E) bool
	// Rand returns a uniformly random field element.
	Rand(r *rand.Rand) E
	// Elements returns n pairwise-distinct field elements. It returns an
	// error if the field has fewer than n elements. The sequence is
	// deterministic: Elements(n) is a prefix of Elements(n+1).
	Elements(n int) ([]E, error)
}

// NTTField is implemented by fields with a large power-of-two multiplicative
// subgroup, enabling O(n log n) polynomial multiplication. The Goldilocks
// field implements it; GF(2^m) does not (its multiplicative order 2^m-1 is
// odd).
type NTTField[E comparable] interface {
	Field[E]
	// RootOfUnity returns a primitive root of unity of the given order.
	// order must be a power of two supported by the field.
	RootOfUnity(order uint64) (E, error)
}

// Exp returns base^e by square-and-multiply.
func Exp[E comparable](f Field[E], base E, e uint64) E {
	result := f.One()
	acc := base
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = f.Mul(result, acc)
		}
		acc = f.Mul(acc, acc)
	}
	return result
}

// Dot returns the inner product of two equal-length vectors over f.
func Dot[E comparable](f Field[E], a, b []E) (E, error) {
	if len(a) != len(b) {
		var zero E
		return zero, fmt.Errorf("field: dot product length mismatch %d != %d", len(a), len(b))
	}
	return AsBulk(f).DotVec(a, b), nil
}

// RandVec returns a vector of n uniformly random elements.
func RandVec[E comparable](f Field[E], r *rand.Rand, n int) []E {
	return RandVecInto(f, r, make([]E, n))
}

// RandVecInto fills dst with uniformly random elements, drawn in index
// order exactly as RandVec draws a vector of len(dst), and returns dst.
func RandVecInto[E comparable](f Field[E], r *rand.Rand, dst []E) []E {
	for i := range dst {
		dst[i] = f.Rand(r)
	}
	return dst
}

// ZeroVec returns a vector of n zero elements.
func ZeroVec[E comparable](f Field[E], n int) []E {
	out := make([]E, n)
	for i := range out {
		out[i] = f.Zero()
	}
	return out
}
