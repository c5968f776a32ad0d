package field

import (
	"fmt"
	"math/bits"
)

// Native bulk kernels for the Goldilocks field. Each loop body is the
// concrete branch-light uint64 arithmetic of goldilocks.go, inlined by the
// compiler with no interface dispatch — the devirtualized hot path of the
// coded-execution engine.

var _ Bulk[uint64] = Goldilocks{}

// AddVec implements Bulk.
func (g Goldilocks) AddVec(dst, a, b []uint64) {
	for i := range a {
		dst[i] = g.Add(a[i], b[i])
	}
}

// SubVec implements Bulk.
func (g Goldilocks) SubVec(dst, a, b []uint64) {
	for i := range a {
		dst[i] = g.Sub(a[i], b[i])
	}
}

// MulVec implements Bulk.
func (g Goldilocks) MulVec(dst, a, b []uint64) {
	for i := range a {
		hi, lo := bits.Mul64(a[i], b[i])
		dst[i] = goldReduce(hi, lo)
	}
}

// ScaleVec implements Bulk.
func (g Goldilocks) ScaleVec(dst []uint64, c uint64, a []uint64) {
	for i := range a {
		hi, lo := bits.Mul64(c, a[i])
		dst[i] = goldReduce(hi, lo)
	}
}

// ScaleAccVec implements Bulk.
func (g Goldilocks) ScaleAccVec(dst []uint64, c uint64, a []uint64) {
	for i := range a {
		hi, lo := bits.Mul64(c, a[i])
		dst[i] = g.Add(dst[i], goldReduce(hi, lo))
	}
}

// LinCombAccVec implements Bulk with one reduction per element instead of
// one per term: each element's products accumulate unreduced in 192 bits
// (lo, hi and a carry word top), and since 2^128 ≡ -2^32 (mod p) the sum is
// goldReduce(hi, lo) - top·2^32. top counts carries, so it stays below the
// term count and no number of terms can overflow it.
func (g Goldilocks) LinCombAccVec(dst, cs []uint64, vecs [][]uint64) {
	cs = cs[:len(vecs)]
	for i := range dst {
		lo, hi, top := dst[i], uint64(0), uint64(0)
		for k, v := range vecs {
			ph, pl := bits.Mul64(cs[k], v[i])
			var carry uint64
			lo, carry = bits.Add64(lo, pl, 0)
			hi, carry = bits.Add64(hi, ph, carry)
			top += carry
		}
		dst[i] = g.Sub(goldReduce(hi, lo), goldReduce(top>>32, top<<32))
	}
}

// LinCombAccRows implements Bulk with LinCombAccVec's lazy reduction.
func (g Goldilocks) LinCombAccRows(dst, cs []uint64, rows [][]uint64, idx []int) {
	cs = cs[:len(idx)]
	for i := range dst {
		lo, hi, top := dst[i], uint64(0), uint64(0)
		for k, r := range idx {
			ph, pl := bits.Mul64(cs[k], rows[r][i])
			var carry uint64
			lo, carry = bits.Add64(lo, pl, 0)
			hi, carry = bits.Add64(hi, ph, carry)
			top += carry
		}
		dst[i] = g.Sub(goldReduce(hi, lo), goldReduce(top>>32, top<<32))
	}
}

// MatVec implements Bulk with LinCombAccVec's lazy reduction: each row's
// products accumulate unreduced in 192 bits and are reduced once.
func (g Goldilocks) MatVec(dst, m, v []uint64) {
	d := len(v)
	for i := range dst {
		row := m[i*d : (i+1)*d]
		var lo, hi, top uint64
		for t, x := range v {
			ph, pl := bits.Mul64(row[t], x)
			var carry uint64
			lo, carry = bits.Add64(lo, pl, 0)
			hi, carry = bits.Add64(hi, ph, carry)
			top += carry
		}
		dst[i] = g.Sub(goldReduce(hi, lo), goldReduce(top>>32, top<<32))
	}
}

// SubScaleVec implements Bulk.
func (g Goldilocks) SubScaleVec(dst []uint64, c uint64, a []uint64) {
	for i := range a {
		hi, lo := bits.Mul64(c, a[i])
		dst[i] = g.Sub(dst[i], goldReduce(hi, lo))
	}
}

// DotVec implements Bulk.
func (g Goldilocks) DotVec(a, b []uint64) uint64 {
	var acc uint64
	for i := range a {
		hi, lo := bits.Mul64(a[i], b[i])
		acc = g.Add(acc, goldReduce(hi, lo))
	}
	return acc
}

// SubScalarVec implements Bulk.
func (g Goldilocks) SubScalarVec(dst, a []uint64, c uint64) {
	for i := range a {
		dst[i] = g.Sub(a[i], c)
	}
}

// ScalarSubVec implements Bulk.
func (g Goldilocks) ScalarSubVec(dst []uint64, c uint64, a []uint64) {
	for i := range a {
		dst[i] = g.Sub(c, a[i])
	}
}

// HornerVec implements Bulk.
func (g Goldilocks) HornerVec(acc, xs []uint64, c uint64) {
	for i := range acc {
		hi, lo := bits.Mul64(acc[i], xs[i])
		acc[i] = g.Add(goldReduce(hi, lo), c)
	}
}

// BatchInvInto implements Bulk.
func (g Goldilocks) BatchInvInto(dst, xs []uint64) error {
	n := len(xs)
	if len(dst) < n {
		panic(fmt.Sprintf("field: BatchInvInto dst length %d < %d", len(dst), n))
	}
	if n == 0 {
		return nil
	}
	acc := uint64(1)
	for i, x := range xs {
		if x == 0 {
			return fmt.Errorf("field: batch inverse of zero at index %d: %w", i, ErrDivisionByZero)
		}
		dst[i] = acc
		acc = g.Mul(acc, x)
	}
	inv, err := g.Inv(acc)
	if err != nil {
		return err
	}
	for i := n - 1; i >= 0; i-- {
		dst[i] = g.Mul(inv, dst[i])
		inv = g.Mul(inv, xs[i])
	}
	return nil
}
