package poly

import (
	"fmt"
	"sync"
)

// SubproductTree is the binary tree of partial products
// prod_{i in range} (z - points[i]) used for quasilinear multi-point
// evaluation and interpolation (von zur Gathen & Gerhard, ch. 10). Building
// it costs O(M(n) log n) where M is the multiplication cost; with the NTT
// this is O(n log^2 n), matching the per-worker coding complexity the paper
// claims in Section 6.2.
type SubproductTree[E comparable] struct {
	ring   *Ring[E]
	points []E
	root   *treeNode[E]

	// Interpolation weights 1/m'(x_i) depend only on the points, not on the
	// interpolated values; they are computed once on first use and shared by
	// every subsequent Interpolate (each execution round interpolates L
	// codeword components against the same tree). sync.Once keeps the
	// lazy computation safe under the parallel decode fan-out.
	weightsOnce sync.Once
	invDeriv    []E
	weightsErr  error
}

type treeNode[E comparable] struct {
	prod        Poly[E] // prod_{i=lo..hi-1} (z - points[i])
	left, right *treeNode[E]
	lo, hi      int
}

// NewSubproductTree builds the subproduct tree over the given points.
func NewSubproductTree[E comparable](ring *Ring[E], points []E) *SubproductTree[E] {
	t := &SubproductTree[E]{ring: ring, points: points}
	if len(points) > 0 {
		t.root = t.build(0, len(points))
	}
	return t
}

func (t *SubproductTree[E]) build(lo, hi int) *treeNode[E] {
	n := &treeNode[E]{lo: lo, hi: hi}
	if hi-lo == 1 {
		n.prod = Poly[E]{t.ring.f.Neg(t.points[lo]), t.ring.f.One()}
		return n
	}
	mid := (lo + hi) / 2
	n.left = t.build(lo, mid)
	n.right = t.build(mid, hi)
	n.prod = t.ring.Mul(n.left.prod, n.right.prod)
	return n
}

// Master returns prod_i (z - points[i]).
func (t *SubproductTree[E]) Master() Poly[E] {
	if t.root == nil {
		return Poly[E]{t.ring.f.One()}
	}
	return t.root.prod
}

// Points returns the evaluation points the tree was built over.
func (t *SubproductTree[E]) Points() []E { return t.points }

// EvalMany evaluates p at every tree point by remainder descent:
// O(M(n) log n) instead of Horner's O(n deg p).
func (t *SubproductTree[E]) EvalMany(p Poly[E]) ([]E, error) {
	out := make([]E, len(t.points))
	if err := t.EvalManyInto(out, p); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalManyInto is EvalMany writing into a caller-owned slice of length
// len(Points()) — the repeated-decode hot paths reuse one scratch buffer
// per worker instead of allocating per call.
func (t *SubproductTree[E]) EvalManyInto(out []E, p Poly[E]) error {
	if len(out) != len(t.points) {
		return fmt.Errorf("poly: EvalManyInto dst length %d, want %d", len(out), len(t.points))
	}
	if t.root == nil {
		return nil
	}
	rem, err := t.ring.Mod(p, t.root.prod)
	if err != nil {
		return err
	}
	return t.evalDown(t.root, rem, out)
}

// evalLeafBlock is the node size at which the remainder descent switches to
// direct vectorized Horner evaluation: below it, the dominant cost of the
// two divisions per node is allocation and call overhead, while Horner over
// the residual degree-<block polynomial runs allocation-free on bulk
// kernels.
const evalLeafBlock = 8

func (t *SubproductTree[E]) evalDown(n *treeNode[E], p Poly[E], out []E) error {
	if n.hi-n.lo <= evalLeafBlock {
		// p is already reduced mod this node's product, so deg(p) < hi-lo:
		// evaluate it directly at the block's points.
		t.ring.EvalManyInto(out[n.lo:n.hi], p, t.points[n.lo:n.hi])
		return nil
	}
	pl, err := t.ring.Mod(p, n.left.prod)
	if err != nil {
		return err
	}
	pr, err := t.ring.Mod(p, n.right.prod)
	if err != nil {
		return err
	}
	if err := t.evalDown(n.left, pl, out); err != nil {
		return err
	}
	return t.evalDown(n.right, pr, out)
}

// Interpolate returns the unique polynomial of degree < n through
// (points[i], ys[i]) using the tree: weights from the derivative of the
// master polynomial, then a bottom-up linear combination. O(M(n) log n).
func (t *SubproductTree[E]) Interpolate(ys []E) (Poly[E], error) {
	if len(ys) != len(t.points) {
		return nil, fmt.Errorf("poly: fast interpolate: %d values for %d points: %w", len(ys), len(t.points), ErrDegreeMismatch)
	}
	if t.root == nil {
		return nil, nil
	}
	invs, err := t.Weights()
	if err != nil {
		return nil, err
	}
	weights := make([]E, len(ys))
	t.ring.bulk.MulVec(weights, ys, invs)
	return t.combine(t.root, weights), nil
}

// Weights returns (computing on first use) the cached barycentric-style
// weights 1/m'(x_i), where m'(x_i) = prod_{j != i} (x_i - x_j) is nonzero
// iff the points are distinct. The slice is shared: do not modify it.
func (t *SubproductTree[E]) Weights() ([]E, error) {
	t.weightsOnce.Do(func() {
		deriv := t.ring.Derivative(t.Master())
		derivVals, err := t.EvalMany(deriv)
		if err != nil {
			t.weightsErr = err
			return
		}
		invs := make([]E, len(derivVals))
		if err := t.ring.bulk.BatchInvInto(invs, derivVals); err != nil {
			t.weightsErr = fmt.Errorf("poly: fast interpolate: duplicate points: %w", err)
			return
		}
		t.invDeriv = invs
	})
	return t.invDeriv, t.weightsErr
}

// combine computes sum_{i in node range} weights[i] * prod_{j != i, j in
// range} (z - points[j]) recursively:
// combine(node) = combine(left)*right.prod + combine(right)*left.prod.
func (t *SubproductTree[E]) combine(n *treeNode[E], weights []E) Poly[E] {
	if n.hi-n.lo == 1 {
		return t.ring.Constant(weights[n.lo])
	}
	l := t.combine(n.left, weights)
	r := t.combine(n.right, weights)
	return t.ring.Add(t.ring.Mul(l, n.right.prod), t.ring.Mul(r, n.left.prod))
}
