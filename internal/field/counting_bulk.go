package field

// Bulk kernels for the counting decorator: charge the counters in one
// atomic add per vector — the totals are exactly what the replaced scalar
// loops would have accumulated element by element, and atomic counters
// commute, so totals are independent of worker scheduling — then delegate
// to the wrapped field's kernel (native when it has one, the generic
// adapter otherwise). Measured clusters therefore keep devirtualized
// arithmetic while the paper's operation-count metric stays intact.

var _ Bulk[uint64] = (*Counting[uint64])(nil)

// AddVec implements Bulk, counting len(a) additions.
func (c *Counting[E]) AddVec(dst, a, b []E) {
	c.adds.Add(uint64(len(a)))
	c.innerBulk.AddVec(dst, a, b)
}

// SubVec implements Bulk, counting len(a) additions.
func (c *Counting[E]) SubVec(dst, a, b []E) {
	c.adds.Add(uint64(len(a)))
	c.innerBulk.SubVec(dst, a, b)
}

// MulVec implements Bulk, counting len(a) multiplications.
func (c *Counting[E]) MulVec(dst, a, b []E) {
	c.muls.Add(uint64(len(a)))
	c.innerBulk.MulVec(dst, a, b)
}

// ScaleVec implements Bulk, counting len(a) multiplications.
func (c *Counting[E]) ScaleVec(dst []E, k E, a []E) {
	c.muls.Add(uint64(len(a)))
	c.innerBulk.ScaleVec(dst, k, a)
}

// ScaleAccVec implements Bulk, counting len(a) additions and
// multiplications.
func (c *Counting[E]) ScaleAccVec(dst []E, k E, a []E) {
	c.adds.Add(uint64(len(a)))
	c.muls.Add(uint64(len(a)))
	c.innerBulk.ScaleAccVec(dst, k, a)
}

// LinCombAccVec implements Bulk, counting len(vecs)·len(dst) additions and
// multiplications — the ScaleAccVec chain's totals — in one charge.
func (c *Counting[E]) LinCombAccVec(dst, ks []E, vecs [][]E) {
	n := uint64(len(vecs) * len(dst))
	c.adds.Add(n)
	c.muls.Add(n)
	c.innerBulk.LinCombAccVec(dst, ks, vecs)
}

// LinCombAccRows implements Bulk, counting len(idx)·len(dst) additions
// and multiplications — what LinCombAccVec charges for the same terms.
func (c *Counting[E]) LinCombAccRows(dst, ks []E, rows [][]E, idx []int) {
	n := uint64(len(idx) * len(dst))
	c.adds.Add(n)
	c.muls.Add(n)
	c.innerBulk.LinCombAccRows(dst, ks, rows, idx)
}

// MatVec implements Bulk, counting len(dst)·len(v) multiplications and
// len(dst)·(len(v)-1) additions — the ScaleVec-then-LinCombAccVec
// chain's totals — in one charge.
func (c *Counting[E]) MatVec(dst, m, v []E) {
	if len(v) > 0 {
		c.muls.Add(uint64(len(dst) * len(v)))
		c.adds.Add(uint64(len(dst) * (len(v) - 1)))
	}
	c.innerBulk.MatVec(dst, m, v)
}

// SubScaleVec implements Bulk, counting len(a) additions and
// multiplications.
func (c *Counting[E]) SubScaleVec(dst []E, k E, a []E) {
	c.adds.Add(uint64(len(a)))
	c.muls.Add(uint64(len(a)))
	c.innerBulk.SubScaleVec(dst, k, a)
}

// DotVec implements Bulk, counting len(a) additions and multiplications.
func (c *Counting[E]) DotVec(a, b []E) E {
	c.adds.Add(uint64(len(a)))
	c.muls.Add(uint64(len(a)))
	return c.innerBulk.DotVec(a, b)
}

// SubScalarVec implements Bulk, counting len(a) additions.
func (c *Counting[E]) SubScalarVec(dst, a []E, k E) {
	c.adds.Add(uint64(len(a)))
	c.innerBulk.SubScalarVec(dst, a, k)
}

// ScalarSubVec implements Bulk, counting len(a) additions.
func (c *Counting[E]) ScalarSubVec(dst []E, k E, a []E) {
	c.adds.Add(uint64(len(a)))
	c.innerBulk.ScalarSubVec(dst, k, a)
}

// HornerVec implements Bulk, counting len(acc) additions and
// multiplications.
func (c *Counting[E]) HornerVec(acc, xs []E, k E) {
	c.adds.Add(uint64(len(acc)))
	c.muls.Add(uint64(len(acc)))
	c.innerBulk.HornerVec(acc, xs, k)
}

// BatchInvInto implements Bulk. The success path charges Montgomery's-trick
// cost — 3n multiplications and one inversion — and the error path charges
// the i prefix multiplications performed before the zero at index i, exactly
// matching batchInvInto's multiplication sequence.
func (c *Counting[E]) BatchInvInto(dst, xs []E) error {
	if i := zeroIndex[E](c.inner, xs); i >= 0 {
		c.muls.Add(uint64(i))
		return c.innerBulk.BatchInvInto(dst, xs[:i+1])
	}
	c.muls.Add(3 * uint64(len(xs)))
	if len(xs) > 0 {
		c.invs.Add(1)
	}
	return c.innerBulk.BatchInvInto(dst, xs)
}
