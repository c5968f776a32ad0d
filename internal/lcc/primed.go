package lcc

import (
	"fmt"
	"slices"
	"sync/atomic"

	"codedsm/internal/pool"
)

// The verified-subset check is the steady-state decode of every execution
// step, and Primed is its only entry: the DecodeOutputs* entries are the
// full decoder alone, which a caller runs when Primed.Decode refuses, so a
// word is certified or refused once. The evaluation points are fixed, so
// for one received-row layout and one choice of exactly dim = d(K-1)+1
// "trusted" rows, the values of the degree-< dim polynomial through the
// trusted rows at every other received row and at the K omegas are a
// constant matrix times the trusted values. A decode is then, per vector
// component, one MatVec of that matrix with the component's trusted
// values, read in place from the received rows — no interpolation, no
// subproduct tree, no error-locator solve — followed by a mismatch count
// against the rows that were not trusted.
//
// Soundness rests on the unique-decoding radius alone, for every layout
// the engines produce (all N rows in a synchronous round, the N-b rows of
// a partially synchronous one, any subset with the missing rows treated
// as erasures): the candidate has degree < dim by construction, so it is a
// codeword of the (sub)code over the received rows, and it is accepted
// only when it disagrees with the received word on at most
// radius = (rows-dim)/2 rows. Two distinct codewords differ on at least
// rows-dim+1 > 2·radius rows, so at most one codeword lies that close to
// any word — the accepted candidate *is* the codeword the full
// noisy-interpolation decoder (rs.Code.Decode) returns, its mismatching
// rows are exactly that decoder's error positions, and outputs and
// FaultyNodes are bit-identical to the full decode's. Nothing in the
// argument depends on which rows were trusted, on the suspect set being
// right, or on the fault budget being respected: a lying trusted row, a
// suspect turned honest, or more corruption than the code can correct
// only ever make the count exceed the radius, in which case the check
// refuses and the caller runs the full decoder, which stays the authority
// on everything the check cannot certify (including ErrTooManyErrors).
type subsetCheck[E comparable] struct {
	indices []int // node index per received row; nil means the full 0..N-1
	rows    int
	trusted []int // the dim row positions whose values define the candidate
	rest    []int // every other row position, ascending
	radius  int   // (rows-dim)/2, the (sub)code's unique-decoding radius
	// predict is row-major, one row per z_i and one column per trusted
	// row: predict[i*dim+t] is the Lagrange basis polynomial of trusted row
	// t evaluated at z_i, where z runs over the rest rows' alphas and then
	// the K omegas.
	predict []E
}

// checkScratch is the reusable working memory of one verify caller:
// per-worker prediction vectors, gathered trusted values and mismatch
// masks.
type checkScratch[E comparable] struct {
	pred  []E
	coefs []E
	bad   []bool
}

// checkFor returns NewPrimed's verified-subset check for a received-row
// layout (indices nil: the full node set) that trusts the first dim rows
// whose node is not in suspects (sorted ascending), or nil when fewer than
// dim+spare rows are unsuspected. The one check every honest round needs —
// full layout, rows 0..dim-1 trusted — is built once per dimension and
// shared by every Primed built against this Code. Any other check is built
// for the caller alone: an evicting shared cache would make the number of
// builds, and with it the counted field operations of a seeded run, depend
// on worker scheduling.
func (c *Code[E]) checkFor(indices []int, rows, dim int, suspects []int, spare int) (*subsetCheck[E], error) {
	if rows < dim {
		return nil, nil
	}
	trusted := make([]int, 0, dim)
	rest := make([]int, 0, rows-dim)
	unsuspected := 0
	for r := 0; r < rows; r++ {
		_, suspected := slices.BinarySearch(suspects, nodeOf(indices, r))
		if !suspected {
			unsuspected++
		}
		if !suspected && len(trusted) < dim {
			trusted = append(trusted, r)
		} else {
			rest = append(rest, r)
		}
	}
	if len(trusted) < dim || unsuspected < dim+spare {
		return nil, nil
	}
	shared := indices == nil && trusted[dim-1] == dim-1
	if shared {
		c.mu.Lock()
		defer c.mu.Unlock()
		if chk, ok := c.checksByDim[dim]; ok {
			return chk, nil
		}
	}
	xs := make([]E, dim)
	for t, r := range trusted {
		xs[t] = c.alphas[nodeOf(indices, r)]
	}
	zs := make([]E, 0, len(rest)+len(c.omegas))
	for _, r := range rest {
		zs = append(zs, c.alphas[nodeOf(indices, r)])
	}
	zs = append(zs, c.omegas...)
	predict, err := c.lagrangeMatrix(xs, zs)
	if err != nil {
		return nil, fmt.Errorf("lcc: verified-subset check: repeated row index: %w", err)
	}
	chk := &subsetCheck[E]{
		indices: indices,
		rows:    rows,
		trusted: trusted,
		rest:    rest,
		radius:  (rows - dim) / 2,
		predict: predict,
	}
	if shared {
		c.checksByDim[dim] = chk
	}
	return chk, nil
}

// verify decodes the received rows' l components with the check, reading
// component j's word as results[r][j]. ok is false when some component's
// candidate misses more than radius rows; the words are then for the full
// decoder. On ok the result is exactly the full decoder's (see the
// soundness argument on subsetCheck).
func (s *subsetCheck[E]) verify(c *Code[E], results [][]E, l, workers int, sc *checkScratch[E]) (*DecodeResult[E], bool) {
	k, nr, dim := len(c.omegas), len(s.rest), len(s.trusted)
	z := nr + k
	nw := pool.Clamp(workers, l)
	if len(sc.pred) != nw*z || len(sc.coefs) != nw*dim {
		sc.pred = make([]E, nw*z)
		sc.coefs = make([]E, nw*dim)
		sc.bad = make([]bool, nw*nr)
	}
	clear(sc.bad)
	outputs := flatOutputs[E](k, l)
	var refused atomic.Bool
	_ = pool.RunIndexed(workers, l, func(worker, j int) error {
		if refused.Load() {
			return nil // some component was already refused: short-circuit
		}
		pred := sc.pred[worker*z : (worker+1)*z]
		coefs := sc.coefs[worker*dim : (worker+1)*dim]
		bad := sc.bad[worker*nr : (worker+1)*nr]
		for t, r := range s.trusted {
			coefs[t] = results[r][j]
		}
		c.bulk.MatVec(pred, s.predict, coefs)
		misses := 0
		for i, r := range s.rest {
			if !c.f.Equal(pred[i], results[r][j]) {
				bad[i] = true
				misses++
			}
		}
		if misses > s.radius {
			refused.Store(true)
			return nil
		}
		for ki, v := range pred[nr:] {
			outputs[ki][j] = v
		}
		return nil
	})
	if refused.Load() {
		return nil, false
	}
	missed, misses := sc.bad[:nr], 0
	for i := range missed {
		for w := 1; w < nw && !missed[i]; w++ {
			missed[i] = sc.bad[w*nr+i]
		}
		if missed[i] {
			misses++
		}
	}
	faulty := make([]int, 0, misses)
	for i, r := range s.rest {
		if missed[i] {
			faulty = append(faulty, nodeOf(s.indices, r))
		}
	}
	slices.Sort(faulty) // a caller's indices need not be ascending
	return &DecodeResult[E]{Outputs: outputs, FaultyNodes: faulty}, true
}

// Primed is the verified-subset check bound to one decoding node: a
// received-row layout, a set of suspected nodes kept out of the trusted
// rows, and the node's reusable scratch. Suspicion is only a hint for
// choosing trusted rows that are likely clean — the steady state of an
// execution round, where the same Byzantine nodes corrupt step after step
// (Section 5.2's decoder runs once; later steps reuse its verdict) — and
// never enters the soundness argument (see subsetCheck).
type Primed[E comparable] struct {
	code    *Code[E]
	check   *subsetCheck[E]
	scratch checkScratch[E]
}

// NewPrimed builds a primed decoder for the given received-row layout
// (indices as in DecodeOutputsSubset; nil for the full node set), suspected
// node set, transition degree, and fault budget. It returns (nil, nil)
// when the layout is ineligible — fewer than dim+maxFaults unsuspected
// rows, so that maxFaults fresh liars could leave no clean choice of dim
// trusted rows and the suspicion is too broad to be worth priming on — in
// which case callers must use the full decoder.
func (c *Code[E]) NewPrimed(indices, suspects []int, degree, maxFaults int) (*Primed[E], error) {
	n := len(c.alphas)
	rows := n
	if indices != nil && !isFullSet(indices, n) {
		rows = len(indices)
		indices = slices.Clone(indices)
	} else {
		indices = nil
	}
	suspects = slices.Clone(suspects)
	slices.Sort(suspects)
	check, err := c.checkFor(indices, rows, c.ResultDim(degree), suspects, maxFaults)
	if err != nil || check == nil {
		return nil, err
	}
	return &Primed[E]{code: c, check: check}, nil
}

// Decode attempts the verified-subset check on a received results matrix
// shaped exactly like the layout the decoder was primed for. ok=false
// means some component could not be certified (a trusted row lied, or the
// word is beyond the code's radius) and the caller must run the full
// decoder; the returned result is nil in that case. On ok=true the decode
// is exactly what the full decoder would have produced, FaultyNodes
// included (a suspect that sent a clean value this step is not accused).
// The rows are read in place and never written.
//
// A Primed belongs to one decoding node: Decode reuses internal scratch
// and must not be called concurrently on the same instance (the component
// fan-out inside one call is fine).
func (p *Primed[E]) Decode(results [][]E, workers int) (*DecodeResult[E], bool, error) {
	rows := p.check.rows
	l, err := p.code.vectorLen(results, rows)
	if err != nil {
		return nil, false, err
	}
	res, ok := p.check.verify(p.code, results, l, workers, &p.scratch)
	return res, ok, nil
}
