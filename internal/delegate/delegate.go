// Package delegate implements Section 6.2 of the paper: delegating all of
// CSM's coding work (command encoding, state updates, result decoding) to a
// single worker node so that the network-wide coding complexity drops from
// O(N*K) per round (every node encodes by inner product) to
// O(N log^2 N log log N) at one node — with every step verifiable by the
// rest of the network through INTERMIX.
//
// The worker proves three claims per round:
//
//  1. encoding:  X̃ = C X   (the Lagrange coefficient matrix times the
//     agreed commands) — audited directly as a matrix-vector product;
//  2. decoding:  the coefficients b of h(z) satisfy equation (9): there is
//     a set τ of at least (N+K'+1)/2 node indices whose received results
//     match V_τ b, where V is the Vandermonde matrix of the alphas;
//  3. outputs:   equation (8): the machine outputs are Ω b with
//     Ω = [ω_k^j].
//
// All three are matrix-vector products, so INTERMIX applies as a black box.
package delegate

import (
	"errors"
	"fmt"

	"codedsm/internal/field"
	"codedsm/internal/intermix"
	"codedsm/internal/ints"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
)

// ErrProofInvalid reports a delegate proof the auditors rejected.
var ErrProofInvalid = errors.New("delegate: proof rejected")

// Delegation wraps an lcc.Code with worker-side fast coding and
// auditor-side verification.
type Delegation[E comparable] struct {
	code *lcc.Code[E]
	ring *poly.Ring[E]
	f    field.Field[E]
}

// New creates a delegation layer over the given code.
func New[E comparable](ring *poly.Ring[E], code *lcc.Code[E]) *Delegation[E] {
	return &Delegation[E]{code: code, ring: ring, f: ring.Field()}
}

// EncodeCommands is the worker's fast path: interpolation over the omegas
// plus multi-point evaluation at the alphas per vector component,
// O((N+K) log^2) with NTT — versus O(N*K) for the distributed inner-product
// encoding it replaces.
func (d *Delegation[E]) EncodeCommands(cmds [][]E) ([][]E, error) {
	return d.code.EncodeVectorsFast(cmds)
}

// AuditEncoding verifies the claimed coded commands against X̃ = C X using
// INTERMIX per vector component: the auditor recomputes, and on fraud the
// interactive bisection pins a constant-time-checkable inconsistency.
// It returns ErrProofInvalid if any component fails.
func (d *Delegation[E]) AuditEncoding(cmds, claimed [][]E) error {
	if len(claimed) != d.code.N() {
		return fmt.Errorf("delegate: %d coded commands for N=%d: %w", len(claimed), d.code.N(), ErrProofInvalid)
	}
	if len(cmds) != d.code.K() {
		return fmt.Errorf("delegate: %d commands for K=%d: %w", len(cmds), d.code.K(), ErrProofInvalid)
	}
	comps := len(cmds[0])
	c := d.code.Coeffs()
	for j := 0; j < comps; j++ {
		x := make([]E, d.code.K())
		for k := range x {
			x[k] = cmds[k][j]
		}
		output := make([]E, d.code.N())
		for i := range output {
			output[i] = claimed[i][j]
		}
		// The worker's answer function recomputes truthfully on the real
		// data; the *claim* under audit is the published output.
		answer := func(row, lo, hi int) (E, error) {
			acc := d.f.Zero()
			for idx := lo; idx < hi; idx++ {
				acc = d.f.Add(acc, d.f.Mul(c[row][idx], x[idx]))
			}
			return acc, nil
		}
		alert, err := intermix.Audit(d.f, c, x, output, answer)
		if err != nil {
			return err
		}
		if alert != nil {
			return fmt.Errorf("delegate: encoding component %d: %v at row %d: %w",
				j, alert.Kind, alert.Row, ErrProofInvalid)
		}
	}
	return nil
}

// DecodeProof is the worker's published evidence for a decoded round:
// per result component, the coefficients of h and the agreeing set τ.
type DecodeProof[E comparable] struct {
	// Dim is the RS dimension K' + 1 = d(K-1) + 1.
	Dim int
	// Coeffs[j] are the coefficients of h_j (length <= Dim).
	Coeffs []poly.Poly[E]
	// Tau[j] lists at least (N + K' + 1)/2 node indices whose submitted
	// results equal h_j(alpha_i) (equation (9)).
	Tau [][]int
}

// DecodeWithProof is the worker's decode, producing outputs and a proof.
// The paper offhandedly names Berlekamp-Welch for this step while claiming
// quasilinear cost; BW's linear-algebra formulation is cubic, so the worker
// uses Gao's extended-Euclidean decoder (the quasilinear-capable one), the
// repository's only decoder. It decodes on the lcc.Code's shared result code, so the RS
// code is built once per Code, not once per round.
func (d *Delegation[E]) DecodeWithProof(results [][]E, degree int) (*lcc.DecodeResult[E], *DecodeProof[E], error) {
	if len(results) != d.code.N() {
		return nil, nil, fmt.Errorf("delegate: %d results for N=%d", len(results), d.code.N())
	}
	code, err := d.code.ResultCode(degree)
	if err != nil {
		return nil, nil, err
	}
	dim := code.Dim()
	comps := len(results[0])
	proof := &DecodeProof[E]{Dim: dim, Coeffs: make([]poly.Poly[E], comps), Tau: make([][]int, comps)}
	outputs := make([][]E, d.code.K())
	for k := range outputs {
		outputs[k] = make([]E, comps)
	}
	// Transpose into per-component words and fan the independent
	// Reed-Solomon decodes across the worker's goroutines.
	words := make([][]E, comps)
	for j := 0; j < comps; j++ {
		word := make([]E, d.code.N())
		for i := range results {
			if len(results[i]) != comps {
				return nil, nil, fmt.Errorf("delegate: ragged results")
			}
			word[i] = results[i][j]
		}
		words[j] = word
	}
	decs, err := code.DecodeMany(words)
	if err != nil {
		return nil, nil, err
	}
	faulty := map[int]bool{}
	for j, res := range decs {
		proof.Coeffs[j] = res.Message
		tau := make([]int, 0, d.code.N()-len(res.ErrorsAt))
		errSet := map[int]bool{}
		for _, e := range res.ErrorsAt {
			errSet[e] = true
			faulty[e] = true
		}
		for i := 0; i < d.code.N(); i++ {
			if !errSet[i] {
				tau = append(tau, i)
			}
		}
		proof.Tau[j] = tau
		vals := d.ring.EvalMany(res.Message, d.code.Omegas())
		for k := 0; k < d.code.K(); k++ {
			outputs[k][j] = vals[k]
		}
	}
	dec := &lcc.DecodeResult[E]{Outputs: outputs, FaultyNodes: ints.SortedKeys(faulty)}
	return dec, proof, nil
}

// VerifyDecodeProof is the auditors' check of a published decode: for each
// component, the τ set is large enough and the Vandermonde identities (9)
// and (8) hold. Both are matrix-vector claims; this verifier recomputes
// them directly, which is what an INTERMIX auditor does before any
// interaction is needed.
func (d *Delegation[E]) VerifyDecodeProof(results [][]E, degree int, proof *DecodeProof[E], outputs [][]E) error {
	n := d.code.N()
	dim := d.code.ResultDim(degree)
	if proof == nil || proof.Dim != dim {
		return fmt.Errorf("delegate: wrong proof dimension: %w", ErrProofInvalid)
	}
	comps := len(proof.Coeffs)
	if comps == 0 || len(proof.Tau) != comps {
		return fmt.Errorf("delegate: malformed proof: %w", ErrProofInvalid)
	}
	// Threshold |τ| >= N - (N - K' - 1)/2 = (N + K' + 1)/2 with K' = dim-1.
	threshold := (n + dim) / 2 // == (n + (dim-1) + 1) / 2
	alphas := d.code.Alphas()
	for j := 0; j < comps; j++ {
		h := proof.Coeffs[j]
		if d.ring.Deg(h) >= dim {
			return fmt.Errorf("delegate: component %d: degree %d too high: %w", j, d.ring.Deg(h), ErrProofInvalid)
		}
		tau := proof.Tau[j]
		if len(tau) < threshold {
			return fmt.Errorf("delegate: component %d: |tau|=%d below threshold %d: %w",
				j, len(tau), threshold, ErrProofInvalid)
		}
		seen := map[int]bool{}
		for _, i := range tau {
			if i < 0 || i >= n || seen[i] {
				return fmt.Errorf("delegate: component %d: bad tau entry %d: %w", j, i, ErrProofInvalid)
			}
			seen[i] = true
			// Equation (9): h(alpha_i) must equal the received g_i.
			if !d.f.Equal(d.ring.Eval(h, alphas[i]), results[i][j]) {
				return fmt.Errorf("delegate: component %d: tau node %d mismatch: %w", j, i, ErrProofInvalid)
			}
		}
	}
	// Equation (8): outputs = evaluations of h at the omegas.
	if len(outputs) != d.code.K() {
		return fmt.Errorf("delegate: %d outputs for K=%d: %w", len(outputs), d.code.K(), ErrProofInvalid)
	}
	for j := 0; j < comps; j++ {
		vals := d.ring.EvalMany(proof.Coeffs[j], d.code.Omegas())
		for k := 0; k < d.code.K(); k++ {
			if len(outputs[k]) != comps {
				return fmt.Errorf("delegate: ragged outputs: %w", ErrProofInvalid)
			}
			if !d.f.Equal(outputs[k][j], vals[k]) {
				return fmt.Errorf("delegate: output (%d,%d) mismatch: %w", k, j, ErrProofInvalid)
			}
		}
	}
	return nil
}

// UpdateStates is the worker's fast coded-state refresh (same machinery as
// command encoding, Section 6.2 "Updating coded states").
func (d *Delegation[E]) UpdateStates(nextStates [][]E) ([][]E, error) {
	return d.EncodeCommands(nextStates)
}
