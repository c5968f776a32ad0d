// Package rs implements Reed-Solomon codes over arbitrary evaluation
// points with one noisy-interpolation decoder: Gao's, built on the
// extended Euclidean algorithm (Gao, "A new algorithm for decoding
// Reed-Solomon codes", 2003) — the "efficient noisy polynomial
// interpolation" the paper invokes for the execution phase (Section 5.2,
// which names Berlekamp-Welch). Every engine and the Section 6.2 worker
// decode with it. Its truth is checked exhaustively over a small field
// (TestDecodeExhaustive): a word within the radius of a codeword decodes
// to it, and any other word is refused.
//
// A CSM execution round produces N evaluations g_i = h(α_i) of the composite
// polynomial h = f(u(z), v(z)) of degree d(K-1); up to b of them are
// corrupted by Byzantine nodes. Decoding recovers h, hence every machine's
// output and next state, iff 2b ≤ N - d(K-1) - 1 (Table 2).
//
// Interpolating a word and evaluating a message at the code's points take
// one of two paths, chosen by code length alone. A code of at most
// denseMaxLen points built by NewCode holds dense tables — the n × n
// Lagrange-basis coefficients and the points' powers below dim — and does
// each in one LinCombAccVec call: 2n² counted operations to interpolate,
// 2n·len(p) to evaluate. Longer codes, and every Subcode, use the
// subproduct tree. The cut is where the counts cross: a tree interpolation
// charges 10 522 at n = 64, 33 074 at 128 and 92 684 at 256, against
// dense's 8 192, 32 768 and 131 072, and a tree evaluation is never the
// cheaper one (TestDenseCrossoverByCount). A Subcode serves one erasure
// layout for a few words, too few to pay back building its tables.
package rs

import (
	"errors"
	"fmt"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// ErrTooManyErrors is returned when the received word is not within the
// code's error-correction radius.
var ErrTooManyErrors = errors.New("rs: too many errors to decode")

// denseMaxLen is the longest code NewCode gives dense tables, by count
// (see the package doc).
const denseMaxLen = 128

// Code is a Reed-Solomon code of the given dimension over fixed evaluation
// points: codewords are (p(points[0]), ..., p(points[n-1])) for polynomials
// p with deg(p) < dim.
//
// Up to denseMaxLen points it runs on dense tables, beyond that and as a
// Subcode on the tree. Tables are built with the code and never written
// again, so any number of goroutines may decode on one Code.
type Code[E comparable] struct {
	ring   *poly.Ring[E]
	points []E
	tree   *poly.SubproductTree[E]
	dim    int
	// Dense tables (nil on the tree path): basis[i] holds the coefficients
	// of the Lagrange basis polynomial of points[i], and pows[j][i] is
	// points[i]^j for j < dim.
	basis [][]E
	pows  [][]E
}

// NewCode constructs a code with the given evaluation points (which must be
// pairwise distinct) and dimension 1 ≤ dim ≤ len(points).
func NewCode[E comparable](ring *poly.Ring[E], points []E, dim int) (*Code[E], error) {
	return newCode(ring, points, dim, len(points) <= denseMaxLen)
}

// newCode is NewCode with the path chosen by the caller.
func newCode[E comparable](ring *poly.Ring[E], points []E, dim int, dense bool) (*Code[E], error) {
	if dim < 1 || dim > len(points) {
		return nil, fmt.Errorf("rs: dimension %d out of range [1,%d]", dim, len(points))
	}
	seen := make(map[E]int, len(points))
	for i, pt := range points {
		if j, dup := seen[pt]; dup {
			return nil, fmt.Errorf("rs: duplicate evaluation point at indices %d and %d", j, i)
		}
		seen[pt] = i
	}
	pts := make([]E, len(points))
	copy(pts, points)
	c := &Code[E]{
		ring:   ring,
		points: pts,
		tree:   poly.NewSubproductTree(ring, pts),
		dim:    dim,
	}
	if dense {
		if err := c.buildTables(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildTables fills basis and pows. The basis polynomial of x_i is
// w_i·m(z)/(z - x_i) with m the tree's master polynomial and w_i its
// weight 1/m'(x_i); synthetic division by every (z - x_i) at once is one
// HornerVec per coefficient of m, from the top.
func (c *Code[E]) buildTables() error {
	n, f, bulk := len(c.points), c.ring.Field(), c.ring.Bulk()
	w, err := c.tree.Weights()
	if err != nil {
		return err
	}
	master := c.tree.Master()
	c.basis = make([][]E, n)
	for i := range c.basis {
		c.basis[i] = make([]E, n)
	}
	quot := field.ZeroVec(f, n) // quot[i]: coefficient j of m(z)/(z - x_i)
	col := make([]E, n)
	for j := n - 1; j >= 0; j-- {
		bulk.HornerVec(quot, c.points, master[j+1])
		bulk.MulVec(col, quot, w)
		for i, v := range col {
			c.basis[i][j] = v
		}
	}
	c.pows = [][]E{make([]E, n)}
	for i := range c.pows[0] {
		c.pows[0][i] = f.One()
	}
	for j := 1; j < c.dim; j++ {
		c.pows = append(c.pows, make([]E, n))
		bulk.MulVec(c.pows[j], c.pows[j-1], c.points)
	}
	return nil
}

// interpolate returns the polynomial of degree < n through the word: one
// LinCombAccVec over the basis table, or the tree.
func (c *Code[E]) interpolate(word []E) (poly.Poly[E], error) {
	if c.basis == nil {
		return c.tree.Interpolate(word)
	}
	p := poly.Poly[E](field.ZeroVec(c.ring.Field(), len(word)))
	c.ring.Bulk().LinCombAccVec(p, word, c.basis)
	return c.ring.Normalize(p), nil
}

// evaluate returns p, of degree < dim, at every point: one LinCombAccVec
// over the power table, or the tree.
func (c *Code[E]) evaluate(p poly.Poly[E]) ([]E, error) {
	if c.pows == nil {
		return c.tree.EvalMany(p)
	}
	p = c.ring.Normalize(p)
	out := field.ZeroVec(c.ring.Field(), len(c.points))
	c.ring.Bulk().LinCombAccVec(out, p, c.pows[:len(p)])
	return out, nil
}

// Length returns the code length n.
func (c *Code[E]) Length() int { return len(c.points) }

// Dim returns the code dimension k.
func (c *Code[E]) Dim() int { return c.dim }

// MaxErrors returns the unique-decoding radius (n-k)/2.
func (c *Code[E]) MaxErrors() int { return (len(c.points) - c.dim) / 2 }

// Encode evaluates the message polynomial (deg < dim) at every point.
func (c *Code[E]) Encode(msg poly.Poly[E]) ([]E, error) {
	if c.ring.Deg(msg) >= c.dim {
		return nil, fmt.Errorf("rs: message degree %d >= dimension %d", c.ring.Deg(msg), c.dim)
	}
	return c.evaluate(msg)
}

// DecodeResult carries a successful decode: the recovered message
// polynomial and the indices at which the received word was corrupted.
type DecodeResult[E comparable] struct {
	Message   poly.Poly[E]
	ErrorsAt  []int
	Corrected []E // the re-encoded (clean) codeword
}

// Decode recovers the message from a received word with at most MaxErrors
// corrupted coordinates, using Gao's extended-Euclidean decoder:
//
//	g0 = prod (z - α_i),   g1 = interpolate(α, received)
//	run EEA(g0, g1) until deg(remainder) < (n + k)/2, giving g ≡ v g1 mod g0
//	message = g / v  (exact division on success)
func (c *Code[E]) Decode(received []E) (*DecodeResult[E], error) {
	n, k := len(c.points), c.dim
	if len(received) != n {
		return nil, fmt.Errorf("rs: received word length %d, want %d", len(received), n)
	}
	g1, err := c.interpolate(received)
	if err != nil {
		return nil, err
	}
	// Fast path: already a codeword.
	if c.ring.Deg(g1) < k {
		corrected, err := c.evaluate(g1)
		if err != nil {
			return nil, err
		}
		return &DecodeResult[E]{Message: g1, ErrorsAt: []int{}, Corrected: corrected}, nil
	}
	g0 := c.tree.Master()
	stopDeg := (n + k + 1) / 2 // first deg strictly below (n+k)/2
	g, v, err := c.ring.PartialEEA(g0, g1, stopDeg)
	if err != nil {
		return nil, err
	}
	if c.ring.IsZero(v) {
		return nil, fmt.Errorf("rs: decoder produced zero locator: %w", ErrTooManyErrors)
	}
	msg, rem, err := c.ring.DivMod(g, v)
	if err != nil {
		return nil, err
	}
	if !c.ring.IsZero(rem) || c.ring.Deg(msg) >= k {
		return nil, fmt.Errorf("rs: %w (non-exact division)", ErrTooManyErrors)
	}
	return c.finish(msg, received)
}

// finish validates a candidate message against the received word and
// collects error positions.
func (c *Code[E]) finish(msg poly.Poly[E], received []E) (*DecodeResult[E], error) {
	corrected, err := c.evaluate(msg)
	if err != nil {
		return nil, err
	}
	f := c.ring.Field()
	errorsAt := make([]int, 0, c.MaxErrors())
	for i := range received {
		if !f.Equal(corrected[i], received[i]) {
			errorsAt = append(errorsAt, i)
		}
	}
	if len(errorsAt) > c.MaxErrors() {
		return nil, fmt.Errorf("rs: %w (%d errors, radius %d)", ErrTooManyErrors, len(errorsAt), c.MaxErrors())
	}
	return &DecodeResult[E]{Message: msg, ErrorsAt: errorsAt, Corrected: corrected}, nil
}

// A WordError locates a batch-decode failure: Word is the index of the
// received word within the DecodeMany batch, and Err is the underlying
// decode failure (typically wrapping ErrTooManyErrors). Match the
// cause with errors.Is and recover the index with errors.As.
type WordError struct {
	Word int
	Err  error
}

func (e *WordError) Error() string { return fmt.Sprintf("rs: word %d: %v", e.Word, e.Err) }

func (e *WordError) Unwrap() error { return e.Err }

// DecodeMany decodes len(words) received words against the same code, one
// after another: an execution round's L vector components are exactly
// such a batch (Section 5.2). Results are index-aligned with words. Every
// word is decoded even after one fails, so the work a batch does (its
// counted field operations, say) does not depend on where a failure sits;
// the first failure is reported, wrapped as a *WordError.
func (c *Code[E]) DecodeMany(words [][]E) ([]*DecodeResult[E], error) {
	out := make([]*DecodeResult[E], len(words))
	var first error
	for j, w := range words {
		res, err := c.Decode(w)
		if err != nil && first == nil {
			first = &WordError{Word: j, Err: err}
		}
		out[j] = res
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// Subcode returns the code restricted to the points selected by indices —
// the partially synchronous execution phase decodes from only the N-b
// results that arrived (Section 5.2). A subcode decodes a few words and is
// dropped, so it always runs on the tree: it builds no dense tables.
func (c *Code[E]) Subcode(indices []int) (*Code[E], error) {
	pts := make([]E, len(indices))
	for i, idx := range indices {
		if idx < 0 || idx >= len(c.points) {
			return nil, fmt.Errorf("rs: subcode index %d out of range", idx)
		}
		pts[i] = c.points[idx]
	}
	return newCode(c.ring, pts, c.dim, false)
}

// DecodeSubset decodes from a subset of coordinates (erasure of the rest):
// indices selects the present points and values carries their (possibly
// corrupted) evaluations.
func (c *Code[E]) DecodeSubset(indices []int, values []E) (*DecodeResult[E], error) {
	if len(indices) != len(values) {
		return nil, fmt.Errorf("rs: %d indices but %d values", len(indices), len(values))
	}
	sub, err := c.Subcode(indices)
	if err != nil {
		return nil, err
	}
	res, err := sub.Decode(values)
	if err != nil {
		return nil, err
	}
	// Map error positions back to original indices.
	mapped := make([]int, len(res.ErrorsAt))
	for i, e := range res.ErrorsAt {
		mapped[i] = indices[e]
	}
	res.ErrorsAt = mapped
	return res, nil
}
