// Package lcc implements the Lagrange coded computing layer of the Coded
// State Machine (Section 5 of the paper).
//
// Coded State: pick K distinct ω_1..ω_K (one per state machine) and N
// distinct α_1..α_N (one per node). The Lagrange polynomial u_t with
// u_t(ω_k) = S_k(t) is evaluated at α_i to produce node i's coded state
// S̃_i(t) = u_t(α_i) = Σ_k c_ik S_k(t) — a single state's worth of storage,
// so γ_CSM = K (equation (7), Remark 4: the coefficients c_ik depend only on
// the points, not on f or t). New picks systematic points, ω_k = α_k for
// k < K (Yu et al., "Lagrange Coded Computing", AISTATS 2019): node k's
// coefficient row is the unit row e_k, so it holds machine k's state in
// the clear and its result h(α_k) is machine k's output. The code protects
// integrity under Byzantine faults, not confidentiality.
//
// Coded Execution: each node encodes the agreed commands with the same
// coefficients, X̃_i = v_t(α_i), computes g_i = f(S̃_i, X̃_i) = h(α_i) with
// h = f(u_t(z), v_t(z)) of degree ≤ d(K-1), and the N results (≤ b wrong)
// are Reed-Solomon decoded to recover every machine's transition.
//
// A step's decode is a two-rung ladder. Primed (primed.go) is the
// verified-subset check, which certifies a step from dim trusted rows in
// one bulk kernel call per component; the DecodeOutputs* entries are the
// noisy-interpolation decoder a caller runs when the check refuses, and
// nothing else.
package lcc

import (
	"fmt"
	"slices"
	"sync"

	"codedsm/internal/field"
	"codedsm/internal/poly"
	"codedsm/internal/rs"
)

// Code fixes the interpolation points and exposes encoding and decoding of
// state/command/result vectors.
type Code[E comparable] struct {
	ring      *poly.Ring[E]
	f         field.Field[E]
	bulk      field.Bulk[E] // resolved once; drives the encode/decode kernels
	omegas    []E
	alphas    []E
	omegaTree *poly.SubproductTree[E]
	alphaTree *poly.SubproductTree[E]
	coeffs    [][]E // N x K Lagrange coefficient matrix C = [c_ik]
	omegaNode []int // per machine k, the node i with α_i = ω_k, or -1

	mu          sync.Mutex // guards the two maps (nodes decode concurrently)
	codesByDim  map[int]*rs.Code[E]
	checksByDim map[int]*subsetCheck[E] // see checkFor
}

// New constructs the systematic code for K machines on N nodes: node i's
// point α_i is the i-th distinct field element and machine k's point is
// ω_k = α_k (k < K), so nodes 0..K-1 hold their machines' states and
// results in the clear and the verified-subset check reads those outputs
// off their rows. It fails if the field is too small (Appendix A: over
// GF(2^m) one needs 2^m ≥ N).
func New[E comparable](ring *poly.Ring[E], k, n int) (*Code[E], error) {
	if k < 1 {
		return nil, fmt.Errorf("lcc: need at least one state machine, got K=%d", k)
	}
	if n < k {
		return nil, fmt.Errorf("lcc: need N >= K, got N=%d < K=%d", n, k)
	}
	pts, err := ring.Field().Elements(n)
	if err != nil {
		return nil, fmt.Errorf("lcc: field too small for N=%d points: %w", n, err)
	}
	return NewWithPoints(ring, pts[:k], pts)
}

// NewWithPoints constructs the code over explicit points. The omegas must
// be pairwise distinct, and so must the alphas; an omega may equal an
// alpha, and that node then holds its machine's value in the clear.
func NewWithPoints[E comparable](ring *poly.Ring[E], omegas, alphas []E) (*Code[E], error) {
	if len(omegas) == 0 || len(alphas) < len(omegas) {
		return nil, fmt.Errorf("lcc: need 1 <= K <= N, got K=%d N=%d", len(omegas), len(alphas))
	}
	machine := make(map[E]int, len(omegas))
	for k, p := range omegas {
		if _, dup := machine[p]; dup {
			return nil, fmt.Errorf("lcc: duplicate interpolation point %v", p)
		}
		machine[p] = k
	}
	omegaNode := make([]int, len(omegas))
	for k := range omegaNode {
		omegaNode[k] = -1
	}
	seen := make(map[E]bool, len(alphas))
	for i, p := range alphas {
		if seen[p] {
			return nil, fmt.Errorf("lcc: duplicate interpolation point %v", p)
		}
		seen[p] = true
		if k, ok := machine[p]; ok {
			omegaNode[k] = i
		}
	}
	c := &Code[E]{
		ring:        ring,
		f:           ring.Field(),
		bulk:        ring.Bulk(),
		omegas:      append([]E(nil), omegas...),
		alphas:      append([]E(nil), alphas...),
		omegaNode:   omegaNode,
		codesByDim:  make(map[int]*rs.Code[E]),
		checksByDim: make(map[int]*subsetCheck[E]),
	}
	c.omegaTree = poly.NewSubproductTree(ring, c.omegas)
	c.alphaTree = poly.NewSubproductTree(ring, c.alphas)
	if err := c.buildCoeffs(); err != nil {
		return nil, err
	}
	return c, nil
}

// buildCoeffs computes c_ik = prod_{l != k} (α_i - ω_l) / (ω_k - ω_l)
// (equation (7)): row i is the omegas' Lagrange basis evaluated at α_i,
// which at α_i = ω_k is the unit row e_k.
func (c *Code[E]) buildCoeffs() error {
	k, n := len(c.omegas), len(c.alphas)
	unit := make([]int, n) // per node, 1 + the machine whose omega is its alpha
	for m, i := range c.omegaNode {
		if i >= 0 {
			unit[i] = m + 1
		}
	}
	var zs []E
	for i, a := range c.alphas {
		if unit[i] == 0 {
			zs = append(zs, a)
		}
	}
	basis, err := c.lagrangeMatrix(c.omegas, zs)
	if err != nil {
		return fmt.Errorf("lcc: coefficient matrix: %w", err)
	}
	flat := make([]E, n*k)
	c.coeffs = make([][]E, n)
	for i := range c.coeffs {
		row := flat[i*k : (i+1)*k : (i+1)*k]
		if unit[i] == 0 {
			copy(row, basis[:k])
			basis = basis[k:]
		} else {
			for m := range row {
				row[m] = c.f.Zero()
			}
			row[unit[i]-1] = c.f.One()
		}
		c.coeffs[i] = row
	}
	return nil
}

// lagrangeMatrix returns the row-major len(zs) x len(xs) matrix whose
// entry [i*len(xs)+t] is ℓ_t(zs[i]), the Lagrange basis polynomial of
// the points xs for xs[t] evaluated at zs[i]:
// ℓ_t(z) = M(z) / ((z - x_t)·w_t) with M(z) = Π_m (z - x_m) and
// w_t = Π_{m≠t} (x_t - x_m). It is computed a column (one t) at a time
// and laid out by rows at the end. It fails with the inversion's error
// when two xs coincide or some zs[i] equals some xs[t].
func (c *Code[E]) lagrangeMatrix(xs, zs []E) ([]E, error) {
	dim, z := len(xs), len(zs)
	diffs := make([]E, dim*z)
	master := make([]E, z)
	weights := make([]E, dim)
	xdiff := make([]E, dim)
	for t := 0; t < dim; t++ {
		row := diffs[t*z : (t+1)*z]
		c.bulk.SubScalarVec(row, zs, xs[t])
		if t == 0 {
			copy(master, row)
		} else {
			c.bulk.MulVec(master, master, row)
		}
		c.bulk.ScalarSubVec(xdiff, xs[t], xs)
		w := c.f.One()
		for m, d := range xdiff {
			if m != t {
				w = c.f.Mul(w, d)
			}
		}
		weights[t] = w
	}
	cols := make([]E, dim*z)
	weightInvs := make([]E, dim)
	if err := c.bulk.BatchInvInto(cols, diffs); err != nil {
		return nil, err
	}
	if err := c.bulk.BatchInvInto(weightInvs, weights); err != nil {
		return nil, err
	}
	out := diffs // spent: reused for the row-major layout
	for t := 0; t < dim; t++ {
		col := cols[t*z : (t+1)*z]
		c.bulk.MulVec(col, col, master)
		c.bulk.ScaleVec(col, weightInvs[t], col)
		for i, v := range col {
			out[i*dim+t] = v
		}
	}
	return out, nil
}

// K returns the number of state machines.
func (c *Code[E]) K() int { return len(c.omegas) }

// N returns the number of nodes.
func (c *Code[E]) N() int { return len(c.alphas) }

// Omegas returns the machine interpolation points (do not modify).
func (c *Code[E]) Omegas() []E { return c.omegas }

// Alphas returns the node evaluation points (do not modify).
func (c *Code[E]) Alphas() []E { return c.alphas }

// Coeffs returns the N x K coefficient matrix C with X̃ = C X (do not
// modify). This is the matrix INTERMIX audits in the delegated mode.
func (c *Code[E]) Coeffs() [][]E { return c.coeffs }

// StorageEfficiency returns γ_CSM = K: each node stores one coded state of
// the same size as an uncoded state (Section 5.1).
func (c *Code[E]) StorageEfficiency() int { return len(c.omegas) }

// EncodeAt computes the coded value for node i from the K machines' values:
// Σ_k c_ik values[k]. values must have length K.
func (c *Code[E]) EncodeAt(values []E, node int) (E, error) {
	var zero E
	if node < 0 || node >= len(c.alphas) {
		return zero, fmt.Errorf("lcc: node %d out of range [0,%d)", node, len(c.alphas))
	}
	return field.Dot(c.f, c.coeffs[node], values)
}

// EncodeVectors encodes K machine vectors (each of length L) into N coded
// vectors by the naive matrix product, O(N*K*L) operations. This is the
// per-node encoding cost the delegated mode eliminates. Each row's K x L
// inner product is one K-term LinCombAccVec kernel over a single flat
// backing array — no per-row allocation and no per-element interface
// dispatch.
func (c *Code[E]) EncodeVectors(values [][]E) ([][]E, error) {
	l, err := c.vectorLen(values, len(c.omegas))
	if err != nil {
		return nil, err
	}
	n := len(c.alphas)
	flat := field.ZeroVec(c.f, n*l)
	out := make([][]E, n)
	for i := range out {
		out[i] = flat[i*l : (i+1)*l : (i+1)*l] // full slice: append never bleeds across rows
		c.bulk.LinCombAccVec(out[i], c.coeffs[i], values)
	}
	return out, nil
}

// EncodeVectorsFast is the Section 6.2 worker path: per vector component,
// interpolate v_t over the omegas (O(K log^2 K)) and evaluate at all alphas
// (O(N log^2 N)) via subproduct trees.
func (c *Code[E]) EncodeVectorsFast(values [][]E) ([][]E, error) {
	l, err := c.vectorLen(values, len(c.omegas))
	if err != nil {
		return nil, err
	}
	out := make([][]E, len(c.alphas))
	for i := range out {
		out[i] = make([]E, l)
	}
	ys := make([]E, len(c.omegas))
	for j := 0; j < l; j++ {
		for k := range values {
			ys[k] = values[k][j]
		}
		v, err := c.omegaTree.Interpolate(ys)
		if err != nil {
			return nil, err
		}
		coded, err := c.alphaTree.EvalMany(v)
		if err != nil {
			return nil, err
		}
		for i := range coded {
			out[i][j] = coded[i]
		}
	}
	return out, nil
}

// vectorLen validates a K-vector-of-vectors input and returns the common
// component length.
func (c *Code[E]) vectorLen(values [][]E, want int) (int, error) {
	if len(values) != want {
		return 0, fmt.Errorf("lcc: got %d vectors, want %d", len(values), want)
	}
	l := len(values[0])
	for i, v := range values {
		if len(v) != l {
			return 0, fmt.Errorf("lcc: vector %d has length %d, want %d", i, len(v), l)
		}
	}
	return l, nil
}

// codeForDim returns (building if needed) the RS code over the alphas with
// the given dimension. Safe for concurrent use: cluster nodes decode the
// same round in parallel against one shared Code.
func (c *Code[E]) codeForDim(dim int) (*rs.Code[E], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if code, ok := c.codesByDim[dim]; ok {
		return code, nil
	}
	code, err := rs.NewCode(c.ring, c.alphas, dim)
	if err != nil {
		return nil, err
	}
	c.codesByDim[dim] = code
	return code, nil
}

// ResultCode returns the Reed-Solomon code over the alphas that a
// degree-d transition's results form, the full decoder's code: built on
// first use and shared by every caller of this Code.
func (c *Code[E]) ResultCode(degree int) (*rs.Code[E], error) {
	return c.codeForDim(c.ResultDim(degree))
}

// ResultDim returns the RS dimension of execution results for a transition
// of total degree d: deg h = d(K-1), so dimension d(K-1)+1.
func (c *Code[E]) ResultDim(degree int) int {
	if degree < 1 {
		degree = 1
	}
	return degree*(len(c.omegas)-1) + 1
}

// DecodeResult carries a decoded execution round.
type DecodeResult[E comparable] struct {
	// Outputs[k] is machine k's decoded result vector h_j(ω_k).
	Outputs [][]E
	// FaultyNodes lists node indices whose submitted results were corrupted
	// (union over vector components), sorted ascending.
	FaultyNodes []int
}

// DecodeOutputs recovers the K machines' result vectors from the N nodes'
// coded results (each a vector of length L), tolerating up to
// (N - d(K-1) - 1)/2 corrupted nodes, where degree is the transition's
// total degree d. It is the noisy-interpolation decoder and nothing else:
// the verified-subset check that makes an honest step cheap is lcc.Primed,
// which a caller tries first.
func (c *Code[E]) DecodeOutputs(results [][]E, degree int) (*DecodeResult[E], error) {
	return c.decode(nil, results, c.ResultDim(degree), c.omegas)
}

// DecodeOutputsSubset decodes from a subset of nodes (partially synchronous
// operation: only N-b results arrive). indices identifies which node each
// results row came from.
func (c *Code[E]) DecodeOutputsSubset(indices []int, results [][]E, degree int) (*DecodeResult[E], error) {
	if indices == nil {
		return nil, fmt.Errorf("lcc: nil subset indices")
	}
	return c.decode(indices, results, c.ResultDim(degree), c.omegas)
}

// RepairShare reconstructs node i's coded share directly from a subset of
// the surviving nodes' shares. Component-wise, the vector (S̃_1,...,S̃_N) of
// coded states is a Reed-Solomon codeword of the degree-(K-1) encoding
// polynomial u at the alphas, so u is interpolated from the subset —
// correcting up to (len(indices)-K)/2 corrupted rows — and evaluated at
// α_node: one Horner evaluation per component instead of a full decode to
// the K machine states plus a re-encode. Field arithmetic is exact and u
// is unique, so the result is bit-identical to a fresh encode of the
// underlying machine vectors. This is what makes node replacement cheap in
// CSM, in contrast to the re-download cost that rules out frequent group
// rotation in random-allocation schemes (Section 7, Remark 5).
//
// indices[r] names the node that contributed shares[r] (strictly
// ascending). The returned faulty list is the union, in node index space,
// of the rows the component decoders corrected.
func (c *Code[E]) RepairShare(indices []int, shares [][]E, node int) ([]E, []int, error) {
	n := len(c.alphas)
	if node < 0 || node >= n {
		return nil, nil, fmt.Errorf("lcc: repair target %d out of range [0,%d)", node, n)
	}
	if len(indices) == 0 {
		return nil, nil, fmt.Errorf("lcc: no repair contributors")
	}
	res, err := c.decode(indices, shares, len(c.omegas), c.alphas[node:node+1])
	if err != nil {
		return nil, nil, err
	}
	return res.Outputs[0], res.FaultyNodes, nil
}

// decode is the one noisy-interpolation loop under DecodeOutputs* and
// RepairShare. The received rows (indices names each row's node; nil: all
// N in order) are, per vector component, a word of the dimension-dim
// Reed-Solomon code over their alphas; each is Gao-decoded (rs.Code.Decode)
// and its message evaluated at the points at, so Outputs[p][j] is
// component j's value at at[p]. FaultyNodes is the ascending union, in
// node index space, of the rows any component corrected.
func (c *Code[E]) decode(indices []int, results [][]E, dim int, at []E) (*DecodeResult[E], error) {
	n := len(c.alphas)
	rows := n
	if indices != nil {
		rows = len(indices)
	}
	l, err := c.vectorLen(results, rows)
	if err != nil {
		return nil, err
	}
	target, err := c.codeForDim(dim)
	if err != nil {
		return nil, err
	}
	if isFullSet(indices, n) {
		indices = nil
	} else if indices != nil {
		if target, err = target.Subcode(indices); err != nil {
			return nil, err
		}
	}
	colMajor := transposeColMajor(results, rows, l)
	out := flatOutputs[E](len(at), l)
	vals := make([]E, len(at))
	corrected := make([]bool, rows)
	for j := 0; j < l; j++ {
		res, err := target.Decode(colMajor[j*rows : (j+1)*rows])
		if err != nil {
			return nil, fmt.Errorf("lcc: component %d: %w", j, err)
		}
		c.ring.EvalManyInto(vals, res.Message, at)
		for p, v := range vals {
			out[p][j] = v
		}
		for _, e := range res.ErrorsAt {
			corrected[e] = true
		}
	}
	faulty := []int{}
	for r, bad := range corrected {
		if bad {
			faulty = append(faulty, nodeOf(indices, r))
		}
	}
	slices.Sort(faulty) // a caller's indices need not be ascending
	return &DecodeResult[E]{Outputs: out, FaultyNodes: faulty}, nil
}

// isFullSet reports whether indices is exactly 0..n-1, i.e. the "subset"
// decode actually has every node's result (the common synchronous case).
func isFullSet(indices []int, n int) bool {
	if len(indices) != n {
		return false
	}
	for i, idx := range indices {
		if idx != i {
			return false
		}
	}
	return true
}

// nodeOf returns the node behind received row r of a layout (indices nil:
// all N nodes in order).
func nodeOf(indices []int, r int) int {
	if indices != nil {
		return indices[r]
	}
	return r
}

// flatOutputs allocates k vectors of length l over one flat backing array
// (full slice expressions: append never bleeds across rows).
func flatOutputs[E comparable](k, l int) [][]E {
	flat := make([]E, k*l)
	outputs := make([][]E, k)
	for i := range outputs {
		outputs[i] = flat[i*l : (i+1)*l : (i+1)*l]
	}
	return outputs
}

// transposeColMajor lays the results matrix out column-major so component
// j's received word is a contiguous slice.
func transposeColMajor[E comparable](results [][]E, rows, l int) []E {
	dst := make([]E, l*rows)
	for i, row := range results {
		for j, v := range row {
			dst[j*rows+i] = v
		}
	}
	return dst
}

// SyncMaxMachines returns the largest K supported by N nodes with b faults
// under a synchronous network and degree-d transitions:
// 2b + 1 ≤ N - d(K-1)  ⇒  K ≤ (N - 2b - 1)/d + 1 (Table 2).
func SyncMaxMachines(n, b, d int) int {
	if d < 1 {
		d = 1
	}
	k := (n-2*b-1)/d + 1
	if k < 0 {
		return 0
	}
	return k
}

// PSyncMaxMachines is the partially synchronous bound:
// 3b + 1 ≤ N - d(K-1)  ⇒  K ≤ (N - 3b - 1)/d + 1 (Theorem 2).
func PSyncMaxMachines(n, b, d int) int {
	if d < 1 {
		d = 1
	}
	k := (n-3*b-1)/d + 1
	if k < 0 {
		return 0
	}
	return k
}

// SyncMaxFaults returns the largest b tolerated for fixed N, K, d in a
// synchronous network: 2b ≤ N - d(K-1) - 1.
func SyncMaxFaults(n, k, d int) int {
	if d < 1 {
		d = 1
	}
	b := (n - d*(k-1) - 1) / 2
	if b < 0 {
		return 0
	}
	return b
}

// PSyncMaxFaults returns the largest b tolerated for fixed N, K, d in a
// partially synchronous network: 3b ≤ N - d(K-1) - 1.
func PSyncMaxFaults(n, k, d int) int {
	if d < 1 {
		d = 1
	}
	b := (n - d*(k-1) - 1) / 3
	if b < 0 {
		return 0
	}
	return b
}
