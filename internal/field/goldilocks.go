package field

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// GoldilocksModulus is p = 2^64 - 2^32 + 1, a prime whose multiplicative
// group has order p-1 = 2^32 * (2^32 - 1), i.e. it contains a subgroup of
// order 2^32 — large enough for NTT-based fast polynomial arithmetic on any
// network size this library simulates.
const GoldilocksModulus uint64 = 0xffffffff00000001

// goldEpsilon is 2^32 - 1; note 2^64 ≡ goldEpsilon (mod p).
const goldEpsilon uint64 = 0xffffffff

// maxNTTLog2 is the log2 of the largest power-of-two subgroup order.
const maxNTTLog2 = 32

// Goldilocks is GF(p) with p = 2^64 - 2^32 + 1. Elements are canonical
// uint64 values in [0, p). The zero value of Goldilocks is ready to use.
type Goldilocks struct{}

var _ NTTField[uint64] = Goldilocks{}

// NewGoldilocks returns the Goldilocks prime field GF(2^64 - 2^32 + 1).
func NewGoldilocks() Goldilocks { return Goldilocks{} }

// Name implements Field.
func (Goldilocks) Name() string { return "GF(2^64-2^32+1)" }

// Zero implements Field.
func (Goldilocks) Zero() uint64 { return 0 }

// One implements Field.
func (Goldilocks) One() uint64 { return 1 }

// FromUint64 implements Field, reducing v modulo p.
func (Goldilocks) FromUint64(v uint64) uint64 {
	if v >= GoldilocksModulus {
		v -= GoldilocksModulus
	}
	return v
}

// Uint64 implements Field.
func (Goldilocks) Uint64(e uint64) uint64 { return e }

// Add implements Field.
func (Goldilocks) Add(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		// s = a+b-2^64; true value ≡ s + 2^32 - 1 (mod p). With canonical
		// inputs the addition below cannot overflow again.
		s += goldEpsilon
	}
	if s >= GoldilocksModulus {
		s -= GoldilocksModulus
	}
	return s
}

// Sub implements Field.
func (Goldilocks) Sub(a, b uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	if borrow != 0 {
		// d = a-b+2^64; true value ≡ d - (2^32 - 1) (mod p). With canonical
		// inputs d ≥ 2^32, so this cannot underflow.
		d -= goldEpsilon
	}
	return d
}

// Neg implements Field.
func (g Goldilocks) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return GoldilocksModulus - a
}

// Mul implements Field.
func (Goldilocks) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return goldReduce(hi, lo)
}

// goldReduce reduces the 128-bit value hi*2^64 + lo modulo p, using
// 2^64 ≡ 2^32 - 1 and 2^96 ≡ -1 (mod p).
func goldReduce(hi, lo uint64) uint64 {
	hiHi := hi >> 32
	hiLo := hi & goldEpsilon
	// t0 = lo - hiHi (mod p)
	t0, borrow := bits.Sub64(lo, hiHi, 0)
	if borrow != 0 {
		t0 -= goldEpsilon
	}
	// t1 = hiLo * (2^32 - 1); fits in 64 bits since hiLo < 2^32.
	t1 := hiLo * goldEpsilon
	s, carry := bits.Add64(t0, t1, 0)
	if carry != 0 {
		s += goldEpsilon
	}
	if s >= GoldilocksModulus {
		s -= GoldilocksModulus
	}
	return s
}

// Inv implements Field via Fermat's little theorem: a^(p-2), on an
// addition chain for p-2 = (2^31-1)·2^33 + 2^32-1 of 64 squarings and 9
// multiplications, where square-and-multiply makes 64 and 63.
func (g Goldilocks) Inv(a uint64) (uint64, error) {
	if a == 0 {
		return 0, ErrDivisionByZero
	}
	// t_k = a^(2^k - 1); t_{j+k} = t_j^(2^k) · t_k.
	t1 := a
	t2 := g.Mul(goldSquare(t1, 1), t1)
	t3 := g.Mul(goldSquare(t2, 1), t1)
	t6 := g.Mul(goldSquare(t3, 3), t3)
	t12 := g.Mul(goldSquare(t6, 6), t6)
	t24 := g.Mul(goldSquare(t12, 12), t12)
	t30 := g.Mul(goldSquare(t24, 6), t6)
	t31 := g.Mul(goldSquare(t30, 1), t1)
	t32 := g.Mul(goldSquare(t31, 1), t1)
	return g.Mul(goldSquare(t31, 33), t32), nil
}

// goldSquare returns x^(2^n): x squared n times.
func goldSquare(x uint64, n int) uint64 {
	var g Goldilocks
	for range n {
		x = g.Mul(x, x)
	}
	return x
}

func goldExp(base, e uint64) uint64 {
	var gl Goldilocks
	result := uint64(1)
	acc := base
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = gl.Mul(result, acc)
		}
		acc = gl.Mul(acc, acc)
	}
	return result
}

// Equal implements Field.
func (Goldilocks) Equal(a, b uint64) bool { return a == b }

// IsZero implements Field.
func (Goldilocks) IsZero(a uint64) bool { return a == 0 }

// Rand implements Field.
func (Goldilocks) Rand(r *rand.Rand) uint64 { return r.Uint64N(GoldilocksModulus) }

// Elements implements Field: it returns 0, 1, ..., n-1.
func (Goldilocks) Elements(n int) ([]uint64, error) {
	if n < 0 {
		return nil, fmt.Errorf("field: negative element count %d", n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out, nil
}

// goldGenerator generates the full multiplicative group of GF(p).
const goldGenerator uint64 = 7

// RootOfUnity implements NTTField. order must be a power of two at most
// 2^32.
func (g Goldilocks) RootOfUnity(order uint64) (uint64, error) {
	if order == 0 || order&(order-1) != 0 {
		return 0, fmt.Errorf("field: root-of-unity order %d is not a power of two", order)
	}
	log2 := bits.TrailingZeros64(order)
	if log2 > maxNTTLog2 {
		return 0, fmt.Errorf("field: root-of-unity order 2^%d exceeds maximum 2^%d", log2, maxNTTLog2)
	}
	// w = g^((p-1)/2^32) is a primitive 2^32-th root; square down to order.
	w := goldExp(goldGenerator, (GoldilocksModulus-1)>>maxNTTLog2)
	for i := maxNTTLog2; i > log2; i-- {
		w = g.Mul(w, w)
	}
	return w, nil
}
