package lcc

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"codedsm/internal/field"
)

// The verified-subset check is the steady-state decode of every execution
// step, and Primed is its only entry: the DecodeOutputs* entries are the
// full decoder alone, which a caller runs when Primed.Decode refuses, so a
// word is certified or refused once. The evaluation points are fixed, so
// for one received-row layout and one choice of exactly dim = d(K-1)+1
// "trusted" rows, the values of the degree-< dim polynomial through the
// trusted rows at every other received row are a constant matrix times
// the trusted values. A decode is then, per vector component, one MatVec
// of that matrix with the component's trusted values, read in place from
// the received rows — no interpolation, no subproduct tree, no
// error-locator solve — followed by a mismatch count against the rows that
// were not trusted. Each of the K outputs is the candidate's value at ω_k,
// read where the check already holds it: a trusted row at ω_k is the value
// itself, a predicted rest row at ω_k its prediction, and only an ω_k that
// no received row sits at costs a prediction row of its own (see
// prediction). Under New's systematic points an honest round's outputs are
// all trusted rows.
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
//
// A Primed seeded by Randomize trades that certainty for speed on its
// unsuspected rest rows (see freivalds): it compares one secret random
// combination of them with the same combination of their predictions, and
// counts them as matching when the two agree. Where they do not all match,
// the combinations agree for at most one r in |F|, so the decode's
// outputs and FaultyNodes differ from the full decoder's only with
// probability at most 1/|F| per component per Decode (2^-63 or less: the
// rule runs only over fields of more than 2^63 elements). The bound needs
// r to be secret: senders that learned it could aim an error at its
// hyperplane. r is reused across a Primed's decodes, and a sender that
// sees which of its errors were refused learns only that r avoids those
// errors' hyperplanes, one hyperplane per refusal, which leaves the
// bound at 1/(|F|-q) after q refusals. Every disagreement falls back to
// the exact check above, which keeps its guarantee unchanged.
type subsetCheck[E comparable] struct {
	indices []int // node index per received row; nil means the full 0..N-1
	rows    int
	trusted []int // the dim row positions whose values define the candidate
	radius  int   // (rows-dim)/2, the (sub)code's unique-decoding radius
	// exact predicts every other row position (its rows, ascending): the
	// rest rows.
	exact prediction[E]
}

// prediction is what verify computes from a component's trusted values:
// the rows it compares (row positions, ascending), the row-major matrix m
// of their predictions followed by one extra row per output no trusted or
// compared row sits at (m[i*dim+t] is the Lagrange basis polynomial of
// trusted row t evaluated at the i-th point), and per output k the index
// from[k] of its value in pred ++ coefs, the MatVec's len(m)/dim values
// followed by the dim trusted ones. The exact check compares every rest
// row; the randomized rule only the suspected ones.
type prediction[E comparable] struct {
	rows []int
	m    []E
	from []int
}

// narrow returns the prediction that compares only the rows p.rows[i] for
// i in keep (ascending): each output read off a dropped row gets that
// row's prediction as an extra row of its own.
func (p *prediction[E]) narrow(keep []int, dim int) prediction[E] {
	z := len(p.m) / dim
	at := make([]int, z) // per row of p.m, 1 + its row in the narrowed m
	q := prediction[E]{rows: make([]int, len(keep)), from: make([]int, len(p.from))}
	for x, i := range keep {
		q.rows[x] = p.rows[i]
		q.m = append(q.m, p.m[i*dim:(i+1)*dim]...)
		at[i] = x + 1
	}
	for _, f := range p.from {
		if f < z && at[f] == 0 {
			q.m = append(q.m, p.m[f*dim:(f+1)*dim]...)
			at[f] = len(q.m) / dim
		}
	}
	nz := len(q.m) / dim
	for k, f := range p.from {
		if f < z {
			q.from[k] = at[f] - 1
		} else {
			q.from[k] = nz + f - z
		}
	}
	return q
}

// checkScratch is the reusable working memory of one verify caller: the
// predicted and trusted values, the mismatch mask, and the randomized
// rule's two combinations.
type checkScratch[E comparable] struct {
	vals     []E
	bad      []bool
	lhs, rhs []E
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
	// Each output's source, as an index into pred ++ coefs once the extra
	// rows are counted: -1-t for trusted row t, i for rest row i, and
	// len(rest)+x for the x-th omega that no received row sits at.
	from := make([]int, len(c.omegas))
	zs := make([]E, 0, len(rest)+len(c.omegas))
	for _, r := range rest {
		zs = append(zs, c.alphas[nodeOf(indices, r)])
	}
	for k, node := range c.omegaNode {
		r := rowOf(indices, rows, node)
		switch t, isTrusted := slices.BinarySearch(trusted, r); {
		case r < 0:
			from[k] = len(zs)
			zs = append(zs, c.omegas[k])
		case isTrusted:
			from[k] = -1 - t
		default:
			from[k], _ = slices.BinarySearch(rest, r)
		}
	}
	for k, f := range from {
		if f < 0 {
			from[k] = len(zs) - 1 - f
		}
	}
	xs := make([]E, dim)
	for t, r := range trusted {
		xs[t] = c.alphas[nodeOf(indices, r)]
	}
	predict, err := c.lagrangeMatrix(xs, zs)
	if err != nil {
		return nil, fmt.Errorf("lcc: verified-subset check: repeated row index: %w", err)
	}
	chk := &subsetCheck[E]{
		indices: indices,
		rows:    rows,
		trusted: trusted,
		radius:  (rows - dim) / 2,
		exact:   prediction[E]{rows: rest, m: predict, from: from},
	}
	if shared {
		c.checksByDim[dim] = chk
	}
	return chk, nil
}

// rowOf returns the received row position of node in a layout of rows
// rows (indices nil: all N nodes in order), or -1 when it was not
// received (node -1 included).
func rowOf(indices []int, rows, node int) int {
	if indices == nil {
		if node >= rows {
			return -1
		}
		return node
	}
	return slices.Index(indices, node)
}

// verify decodes the received rows' l components with the check into
// dst, reading component j's word as results[r][j]: it predicts p's rows
// (every rest row for the exact check, the suspected ones alone once the
// randomized rule has vouched for the others) and reads the outputs where
// p says. dst.Outputs must be K vectors of length l; the faulty rows are
// appended to dst.FaultyNodes[:0]. It returns false when some component's
// candidate misses more than radius of those rows, leaving dst partly
// written; the words are then for the full decoder. On true with every
// rest row predicted the result is exactly the full decoder's (see the
// soundness argument on subsetCheck). The components run in a plain loop
// that allocates nothing once sc is sized.
func (s *subsetCheck[E]) verify(c *Code[E], results [][]E, l int, sc *checkScratch[E], p *prediction[E], dst *DecodeResult[E]) bool {
	nr, dim := len(p.rows), len(s.trusted)
	width := len(p.m)/dim + dim // the predicted and trusted values
	if cap(sc.vals) < width || cap(sc.bad) < nr {
		sc.vals = make([]E, width)
		sc.bad = make([]bool, nr)
	}
	vals, missed := sc.vals[:width], sc.bad[:nr]
	clear(missed)
	for j := range l {
		if !s.component(c, results, p, vals, missed, dst.Outputs, j) {
			return false
		}
	}
	faulty := dst.FaultyNodes[:0]
	for i, r := range p.rows {
		if missed[i] {
			faulty = append(faulty, nodeOf(s.indices, r))
		}
	}
	slices.Sort(faulty) // a caller's indices need not be ascending
	dst.FaultyNodes = faulty
	return true
}

// component checks component j: vals holds the MatVec's predictions
// followed by the dim trusted values, and bad marks the rows of p whose
// received value misses its prediction in any component so far. It writes the
// outputs' j-th elements and reports true, or false when more rows miss
// than the radius allows.
func (s *subsetCheck[E]) component(c *Code[E], results [][]E, p *prediction[E], vals []E, bad []bool, outputs [][]E, j int) bool {
	dim := len(s.trusted)
	z := len(vals) - dim
	pred, coefs := vals[:z], vals[z:]
	for t, r := range s.trusted {
		coefs[t] = results[r][j]
	}
	if z > 0 {
		c.bulk.MatVec(pred, p.m, coefs)
	}
	misses := 0
	for i, r := range p.rows {
		if pred[i] != results[r][j] {
			bad[i] = true
			misses++
		}
	}
	if misses > s.radius {
		return false
	}
	for ki, f := range p.from {
		outputs[ki][j] = vals[f]
	}
	return true
}

// freivalds is a Primed's randomized accept rule for its unsuspected rest
// rows (Freivalds, IFIP 1977). Instead of predicting each of those clean
// rows from the trusted values, it checks one secret random combination
// of them: with r uniform over the clean rows and w = rᵀ·P_clean (P_clean
// the clean rows' slice of the check's predictions), every clean row of
// component j matches its prediction iff the error vector e_j = y_clean −
// P_clean·coefs_j is zero, and w·coefs_j == r·y_clean iff r·e_j = 0. A
// nonzero e_j passes for at most one r in |F| (a hyperplane). So the rule
// costs dim + clean multiply-adds per component instead of clean × dim,
// and the suspected rows, which the radius lets mismatch, are still
// predicted one by one, so the faulty list stays exact.
type freivalds[E comparable] struct {
	clean   []int         // the unsuspected rest rows
	r       []E           // the secret coefficients, one per clean row
	w       []E           // rᵀ·P_clean, one per trusted row
	predict prediction[E] // the check's exact prediction narrowed to the suspected rest rows
}

// largeField reports whether f has more than 2^63 elements, read off its
// canonical representation without a field operation: 2^63 is a canonical
// value only in such a field.
func largeField[E comparable](f field.Field[E]) bool {
	return f.Uint64(f.FromUint64(1<<63)) == 1<<63
}

// newFreivalds builds the randomized rule for check s and the sorted
// suspects, drawing r from a PCG seeded with seed. It returns nil, and the
// Primed keeps the exact check, over a field of at most 2^63 elements,
// where one draw would miss an error with probability above 2^-63, and
// where the rule saves nothing: clean + dim ≥ clean × dim. Forming w is
// its one counted cost, clean × dim multiply-adds, paid once.
func newFreivalds[E comparable](c *Code[E], s *subsetCheck[E], suspects []int, seed [2]uint64) *freivalds[E] {
	rest := s.exact.rows
	var cleanAt, suspectAt []int // positions in rest
	for i, r := range rest {
		if _, suspected := slices.BinarySearch(suspects, nodeOf(s.indices, r)); suspected {
			suspectAt = append(suspectAt, i)
		} else {
			cleanAt = append(cleanAt, i)
		}
	}
	nc, dim := len(cleanAt), len(s.trusted)
	if !largeField(c.f) || nc+dim >= nc*dim {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed[0], seed[1]))
	fr := &freivalds[E]{clean: make([]int, nc), r: make([]E, nc), w: make([]E, dim)}
	cleanRows := make([][]E, nc)
	for x, i := range cleanAt {
		fr.clean[x] = rest[i]
		fr.r[x] = c.f.Rand(rng)
		cleanRows[x] = s.exact.m[i*dim : (i+1)*dim]
	}
	for t := range fr.w {
		fr.w[t] = c.f.Zero()
	}
	c.bulk.LinCombAccVec(fr.w, fr.r, cleanRows)
	fr.predict = s.exact.narrow(suspectAt, dim)
	return fr
}

// accepts reports whether, in every one of the l components, the trusted
// values combined by w equal the clean rows combined by r. Both sides are
// formed for all components at once, one LinCombAccRows over the rows
// each, read in place by their positions: per component that is exactly
// the two dot products w·coefs and r·y_clean.
func (fr *freivalds[E]) accepts(c *Code[E], s *subsetCheck[E], results [][]E, l int, sc *checkScratch[E]) bool {
	if cap(sc.lhs) < l {
		sc.lhs, sc.rhs = make([]E, l), make([]E, l)
	}
	lhs, rhs := sc.lhs[:l], sc.rhs[:l]
	zero := c.f.Zero()
	for j := range lhs {
		lhs[j], rhs[j] = zero, zero
	}
	c.bulk.LinCombAccRows(lhs, fr.w, results, s.trusted)
	c.bulk.LinCombAccRows(rhs, fr.r, results, fr.clean)
	return slices.Equal(lhs, rhs)
}

// Primed is the verified-subset check bound to one decoding node: a
// received-row layout, a set of suspected nodes kept out of the trusted
// rows, and the node's reusable scratch. Suspicion is only a hint for
// choosing trusted rows that are likely clean — the steady state of an
// execution round, where the same Byzantine nodes corrupt step after step
// (Section 5.2's decoder runs once; later steps reuse its verdict) — and
// never enters the soundness argument (see subsetCheck).
type Primed[E comparable] struct {
	code     *Code[E]
	check    *subsetCheck[E]
	suspects []int // sorted
	scratch  checkScratch[E]
	// The randomized accept rule (freivalds): seeded says Randomize
	// supplied seed, decodes counts Decode calls, and rnd is the rule,
	// built on the second Decode so that a layout used once pays exactly
	// the exact check; it stays nil where the rule does not pay.
	seeded  bool
	seed    [2]uint64
	decodes int
	rnd     *freivalds[E]
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
	return &Primed[E]{code: c, check: check, suspects: suspects}, nil
}

// Randomize gives the decoder a secret seed for the randomized accept rule
// (see freivalds): from its second Decode on, over a field of more than
// 2^63 elements and where it saves work, the unsuspected rest rows are
// accepted by one secret random combination per component instead of a
// prediction each. A refused combination runs the exact check, so a
// randomized Primed returns what an unseeded one returns except with
// probability at most 1/|F| per component per Decode. The seed must be
// private to the decoding node: senders that learn r can aim an error at
// its hyperplane. Call it before the second Decode; an unseeded Primed is
// the exact check.
func (p *Primed[E]) Randomize(seed1, seed2 uint64) {
	p.seeded, p.seed = true, [2]uint64{seed1, seed2}
}

// Decode attempts the verified-subset check on a received results matrix
// shaped exactly like the layout the decoder was primed for. ok=false
// means some component could not be certified (a trusted row lied, or the
// word is beyond the code's radius) and the caller must run the full
// decoder; the returned result is nil in that case. On ok=true the decode
// is what the full decoder would have produced, FaultyNodes included (a
// suspect that sent a clean value this step is not accused) — exactly so
// for an unseeded Primed, and but for the randomized rule's error
// probability for a seeded one (see Randomize). The rows are read in
// place and never written, and the result is the caller's.
//
// A Primed belongs to one decoding node: Decode reuses internal scratch
// and must not be called concurrently on the same instance. The second
// argument is unused: the components are checked in one plain loop.
func (p *Primed[E]) Decode(results [][]E, _ int) (*DecodeResult[E], bool, error) {
	res := new(DecodeResult[E])
	if ok, err := p.DecodeInto(res, results); !ok {
		return nil, false, err
	}
	return res, true, nil
}

// DecodeInto is Decode into dst, which the caller owns and reuses:
// Outputs keeps its backing array while it holds K vectors of the
// results' length (it is reallocated otherwise) and FaultyNodes its
// capacity, so a steady caller allocates nothing. It runs the randomized
// rule's check where that is armed and vouches, else the exact check. On
// ok=false dst's contents are unspecified.
func (p *Primed[E]) DecodeInto(dst *DecodeResult[E], results [][]E) (bool, error) {
	s := p.check
	l, err := p.code.vectorLen(results, s.rows)
	if err != nil {
		return false, err
	}
	if len(dst.Outputs) != len(p.code.omegas) || slices.ContainsFunc(dst.Outputs, func(v []E) bool { return len(v) != l }) {
		dst.Outputs = flatOutputs[E](len(p.code.omegas), l)
	}
	if p.decodes++; p.decodes == 2 && p.seeded {
		p.rnd = newFreivalds(p.code, s, p.suspects, p.seed)
	}
	if p.rnd != nil && p.rnd.accepts(p.code, s, results, l, &p.scratch) &&
		s.verify(p.code, results, l, &p.scratch, &p.rnd.predict, dst) {
		return true, nil
	}
	return s.verify(p.code, results, l, &p.scratch, &s.exact, dst), nil
}
