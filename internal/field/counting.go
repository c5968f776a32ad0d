package field

import (
	"math/rand/v2"
	"sync/atomic"
)

// OpCounts is a snapshot of field-operation counters. The paper measures
// throughput as commands processed "per unit operation at each node", where
// an operation is an addition or multiplication in F (Section 2.2); OpCounts
// is the raw material for that metric.
type OpCounts struct {
	Adds uint64 // additions, subtractions and negations
	Muls uint64 // multiplications
	Invs uint64 // inversions (each costs O(log |F|) multiplications in GF(p))
}

// Total returns the paper's operation count: additions plus multiplications,
// with each inversion accounted as invMulCost multiplications.
func (c OpCounts) Total() uint64 {
	return c.Adds + c.Muls + c.Invs*invMulCost
}

// invMulCost is the multiplication-equivalent cost of one inversion
// (square-and-multiply over a 64-bit exponent: ~64 squarings + ~32 products).
const invMulCost = 96

// Add returns the elementwise sum of two snapshots.
func (c OpCounts) Add(o OpCounts) OpCounts {
	return OpCounts{Adds: c.Adds + o.Adds, Muls: c.Muls + o.Muls, Invs: c.Invs + o.Invs}
}

// Sub returns the elementwise difference of two snapshots.
func (c OpCounts) Sub(o OpCounts) OpCounts {
	return OpCounts{Adds: c.Adds - o.Adds, Muls: c.Muls - o.Muls, Invs: c.Invs - o.Invs}
}

// Counting wraps a Field and counts every arithmetic operation. It is safe
// for concurrent use. Construct with NewCounting.
//
// Counting also implements Bulk: each kernel charges the counters once for
// the whole vector (the exact totals the per-element scalar calls would
// have accumulated — atomic counters commute) and then runs the wrapped
// field's kernel, so measured clusters keep the devirtualized hot path.
type Counting[E comparable] struct {
	inner     Field[E]
	innerBulk Bulk[E]
	adds      atomic.Uint64
	muls      atomic.Uint64
	invs      atomic.Uint64
}

// NewCounting returns a counting decorator around f.
func NewCounting[E comparable](f Field[E]) *Counting[E] {
	return &Counting[E]{inner: f, innerBulk: AsBulk(f)}
}

var _ Field[uint64] = (*Counting[uint64])(nil)

// Counts returns a snapshot of the counters.
func (c *Counting[E]) Counts() OpCounts {
	return OpCounts{Adds: c.adds.Load(), Muls: c.muls.Load(), Invs: c.invs.Load()}
}

// Reset zeroes all counters.
func (c *Counting[E]) Reset() {
	c.adds.Store(0)
	c.muls.Store(0)
	c.invs.Store(0)
}

// Name implements Field.
func (c *Counting[E]) Name() string { return c.inner.Name() }

// Zero implements Field.
func (c *Counting[E]) Zero() E { return c.inner.Zero() }

// One implements Field.
func (c *Counting[E]) One() E { return c.inner.One() }

// FromUint64 implements Field.
func (c *Counting[E]) FromUint64(v uint64) E { return c.inner.FromUint64(v) }

// Uint64 implements Field.
func (c *Counting[E]) Uint64(e E) uint64 { return c.inner.Uint64(e) }

// Add implements Field.
func (c *Counting[E]) Add(a, b E) E {
	c.adds.Add(1)
	return c.inner.Add(a, b)
}

// Sub implements Field.
func (c *Counting[E]) Sub(a, b E) E {
	c.adds.Add(1)
	return c.inner.Sub(a, b)
}

// Neg implements Field.
func (c *Counting[E]) Neg(a E) E {
	c.adds.Add(1)
	return c.inner.Neg(a)
}

// Mul implements Field.
func (c *Counting[E]) Mul(a, b E) E {
	c.muls.Add(1)
	return c.inner.Mul(a, b)
}

// Inv implements Field.
func (c *Counting[E]) Inv(a E) (E, error) {
	c.invs.Add(1)
	return c.inner.Inv(a)
}

// Equal implements Field.
func (c *Counting[E]) Equal(a, b E) bool { return c.inner.Equal(a, b) }

// IsZero implements Field.
func (c *Counting[E]) IsZero(a E) bool { return c.inner.IsZero(a) }

// Rand implements Field.
func (c *Counting[E]) Rand(r *rand.Rand) E { return c.inner.Rand(r) }

// Elements implements Field.
func (c *Counting[E]) Elements(n int) ([]E, error) { return c.inner.Elements(n) }

// RootOfUnity implements NTTField when the wrapped field supports it.
func (c *Counting[E]) RootOfUnity(order uint64) (E, error) {
	ntt, ok := c.inner.(NTTField[E])
	if !ok {
		var zero E
		return zero, errNoNTT(c.inner.Name())
	}
	return ntt.RootOfUnity(order)
}

func errNoNTT(name string) error {
	return &noNTTError{name: name}
}

type noNTTError struct{ name string }

func (e *noNTTError) Error() string {
	return "field: " + e.name + " has no power-of-two roots of unity"
}
