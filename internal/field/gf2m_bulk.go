package field

import "fmt"

// Native bulk kernels for GF(2^m). Addition is a plain XOR loop;
// multiplicative kernels hoist the scalar operand's discrete log out of the
// loop, so each element costs one table lookup and one bounded subtraction
// instead of a dynamic dispatch plus two log lookups.

var _ Bulk[uint64] = (*GF2m)(nil)

// AddVec implements Bulk.
func (f *GF2m) AddVec(dst, a, b []uint64) {
	for i := range a {
		dst[i] = a[i] ^ b[i]
	}
}

// SubVec implements Bulk; subtraction is addition in characteristic 2.
func (f *GF2m) SubVec(dst, a, b []uint64) {
	for i := range a {
		dst[i] = a[i] ^ b[i]
	}
}

// MulVec implements Bulk.
func (f *GF2m) MulVec(dst, a, b []uint64) {
	for i := range a {
		dst[i] = f.Mul(a[i], b[i])
	}
}

// ScaleVec implements Bulk.
func (f *GF2m) ScaleVec(dst []uint64, c uint64, a []uint64) {
	if c == 0 {
		for i := range a {
			dst[i] = 0
		}
		return
	}
	logC := uint64(f.logT[c])
	mod := f.order - 1
	for i := range a {
		x := a[i]
		if x == 0 {
			dst[i] = 0
			continue
		}
		s := logC + uint64(f.logT[x])
		if s >= mod {
			s -= mod
		}
		dst[i] = uint64(f.expT[s])
	}
}

// ScaleAccVec implements Bulk.
func (f *GF2m) ScaleAccVec(dst []uint64, c uint64, a []uint64) {
	if c == 0 {
		return
	}
	logC := uint64(f.logT[c])
	mod := f.order - 1
	for i := range a {
		x := a[i]
		if x == 0 {
			continue
		}
		s := logC + uint64(f.logT[x])
		if s >= mod {
			s -= mod
		}
		dst[i] ^= uint64(f.expT[s])
	}
}

// LinCombAccVec implements Bulk, finishing each element before writing it
// so a term may alias dst.
func (f *GF2m) LinCombAccVec(dst, cs []uint64, vecs [][]uint64) {
	cs = cs[:len(vecs)]
	for i := range dst {
		acc := dst[i]
		for k, v := range vecs {
			acc ^= f.Mul(cs[k], v[i])
		}
		dst[i] = acc
	}
}

// LinCombAccRows implements Bulk, finishing each element before writing
// it so a named row may alias dst.
func (f *GF2m) LinCombAccRows(dst, cs []uint64, rows [][]uint64, idx []int) {
	cs = cs[:len(idx)]
	for i := range dst {
		acc := dst[i]
		for k, r := range idx {
			acc ^= f.Mul(cs[k], rows[r][i])
		}
		dst[i] = acc
	}
}

// MatVec implements Bulk.
func (f *GF2m) MatVec(dst, m, v []uint64) {
	d := len(v)
	for i := range dst {
		row := m[i*d : (i+1)*d]
		var acc uint64
		for t, x := range v {
			acc ^= f.Mul(row[t], x)
		}
		dst[i] = acc
	}
}

// SubScaleVec implements Bulk; identical to ScaleAccVec in characteristic 2.
func (f *GF2m) SubScaleVec(dst []uint64, c uint64, a []uint64) {
	f.ScaleAccVec(dst, c, a)
}

// DotVec implements Bulk.
func (f *GF2m) DotVec(a, b []uint64) uint64 {
	var acc uint64
	for i := range a {
		acc ^= f.Mul(a[i], b[i])
	}
	return acc
}

// SubScalarVec implements Bulk.
func (f *GF2m) SubScalarVec(dst, a []uint64, c uint64) {
	for i := range a {
		dst[i] = a[i] ^ c
	}
}

// ScalarSubVec implements Bulk.
func (f *GF2m) ScalarSubVec(dst []uint64, c uint64, a []uint64) {
	for i := range a {
		dst[i] = c ^ a[i]
	}
}

// HornerVec implements Bulk.
func (f *GF2m) HornerVec(acc, xs []uint64, c uint64) {
	for i := range acc {
		acc[i] = f.Mul(acc[i], xs[i]) ^ c
	}
}

// BatchInvInto implements Bulk.
func (f *GF2m) BatchInvInto(dst, xs []uint64) error {
	n := len(xs)
	if len(dst) < n {
		panic(fmt.Sprintf("field: BatchInvInto dst length %d < %d", len(dst), n))
	}
	for i, x := range xs {
		if x == 0 {
			return fmt.Errorf("field: batch inverse of zero at index %d: %w", i, ErrDivisionByZero)
		}
		// Direct log-table inversion beats Montgomery's trick here: no
		// multiplication chain is needed when every inverse is one lookup.
		dst[i] = uint64(f.expT[(f.order-1-uint64(f.logT[x]))%(f.order-1)])
	}
	return nil
}
