package lcc

import (
	"errors"
	"fmt"
	randv1 "math/rand"
	randv2 "math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/poly"
	"codedsm/internal/rs"
)

// gaoDecode is the reference the verified-subset check is held to: the
// decode with no fast path at all — one Gao (rs.Code.Decode) run per
// component against the code over the received rows, the message
// evaluated at the omegas, error positions mapped back to node indices.
func gaoDecode(code *Code[uint64], indices []int, results [][]uint64, degree int) (*DecodeResult[uint64], error) {
	pts := code.Alphas()
	if indices != nil {
		pts = make([]uint64, len(indices))
		for r, idx := range indices {
			pts[r] = code.Alphas()[idx]
		}
	}
	target, err := rs.NewCode(code.ring, pts, code.ResultDim(degree))
	if err != nil {
		return nil, err
	}
	l := len(results[0])
	out := &DecodeResult[uint64]{Outputs: flatOutputs[uint64](code.K(), l)}
	faulty := map[int]bool{}
	word := make([]uint64, len(results))
	for j := 0; j < l; j++ {
		for r := range results {
			word[r] = results[r][j]
		}
		res, err := target.Decode(word)
		if err != nil {
			return nil, err
		}
		for m, v := range code.ring.EvalMany(res.Message, code.Omegas()) {
			out.Outputs[m][j] = v
		}
		for _, e := range res.ErrorsAt {
			if indices != nil {
				e = indices[e]
			}
			faulty[e] = true
		}
	}
	out.FaultyNodes = ints.SortedKeys(faulty)
	return out, nil
}

// codeword returns n result rows of l components, each component a random
// polynomial of degree < dim evaluated at the alphas.
func codeword(code *Code[uint64], r *randv2.Rand, dim, l int) [][]uint64 {
	f := code.ring.Field()
	rows := make([][]uint64, code.N())
	for i := range rows {
		rows[i] = make([]uint64, l)
	}
	for j := 0; j < l; j++ {
		msg := poly.Poly[uint64](field.RandVec(f, r, dim))
		for i, v := range code.ring.EvalMany(msg, code.Alphas()) {
			rows[i][j] = v
		}
	}
	return rows
}

// lie corrupts component j of row.
func lie(f field.Field[uint64], r *randv2.Rand, row []uint64, j int) {
	delta := f.Rand(r)
	for f.IsZero(delta) {
		delta = f.Rand(r)
	}
	row[j] = f.Add(row[j], delta)
}

func sameDecode(f field.Field[uint64], a, b *DecodeResult[uint64]) bool {
	if !slices.Equal(a.FaultyNodes, b.FaultyNodes) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for m := range a.Outputs {
		if !slices.Equal(a.Outputs[m], b.Outputs[m]) {
			return false
		}
	}
	return true
}

// TestVerifiedCheckLiarsInsideTrustedRows: K=4, N=20, d=1 gives dim 4
// (rows 0..3 trusted when nobody is suspected) and radius 8. Any number of
// liars up to the radius with at least one inside the trusted rows makes
// the check refuse, and the decode that falls back is rs.Decode's.
func TestVerifiedCheckLiarsInsideTrustedRows(t *testing.T) {
	const k, n, d, l = 4, 20, 1, 2
	code := newTestCode(t, k, n)
	gold := field.NewGoldilocks()
	r := randv2.New(randv2.NewPCG(5, 6))
	dim, radius := code.ResultDim(d), (n-code.ResultDim(d))/2
	primed, err := code.NewPrimed(nil, nil, d, 0)
	if err != nil || primed == nil {
		t.Fatalf("priming failed: %v", err)
	}
	for e := 1; e <= radius; e++ {
		inside := min(e, dim)
		if e > 1 {
			inside = 1 + int(r.Uint64N(uint64(inside)))
		}
		liars := append(r.Perm(dim)[:inside:inside], r.Perm(n - dim)[:e-inside]...)
		for i := inside; i < e; i++ {
			liars[i] += dim
		}
		results := codeword(code, r, dim, l)
		for _, i := range liars {
			lie(gold, r, results[i], int(r.Uint64N(l)))
		}
		if got, ok, err := primed.Decode(results, 1); err != nil || ok {
			t.Fatalf("%d liars %v (%d trusted): check certified %+v, err %v", e, liars, inside, got, err)
		}
		got, err := code.DecodeOutputs(results, d)
		if err != nil {
			t.Fatalf("%d liars %v: %v", e, liars, err)
		}
		want, err := gaoDecode(code, nil, results, d)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(liars)
		if !sameDecode(gold, got, want) || !slices.Equal(got.FaultyNodes, liars) {
			t.Fatalf("%d liars %v: decode %+v, rs.Decode gives %+v", e, liars, got, want)
		}
	}
}

// TestVerifiedCheckBeyondRadius: radius+1 errors are never accepted — not
// when every trusted row is clean (the candidate is then the true
// polynomial, one miss too far from the word), not when trusted rows lie.
func TestVerifiedCheckBeyondRadius(t *testing.T) {
	const k, n, d, l = 4, 20, 1, 2
	code := newTestCode(t, k, n)
	gold := field.NewGoldilocks()
	r := randv2.New(randv2.NewPCG(7, 8))
	dim := code.ResultDim(d)
	e := (n-dim)/2 + 1
	primed, err := code.NewPrimed(nil, nil, d, 0)
	if err != nil || primed == nil {
		t.Fatalf("priming failed: %v", err)
	}
	for _, firstLiar := range []int{dim, 0} { // all outside the trusted rows; from row 0 on
		results := codeword(code, r, dim, l)
		for i := firstLiar; i < firstLiar+e; i++ {
			lie(gold, r, results[i], 0)
		}
		if got, ok, err := primed.Decode(results, 1); err != nil || ok {
			t.Fatalf("liars %d..%d: check certified %+v, err %v", firstLiar, firstLiar+e-1, got, err)
		}
		if got, err := code.DecodeOutputs(results, d); !errors.Is(err, rs.ErrTooManyErrors) {
			t.Fatalf("liars %d..%d: decode %+v, err %v, want rs.ErrTooManyErrors", firstLiar, firstLiar+e-1, got, err)
		}
	}
}

// TestVerifiedCheckIntermittentLiarKeepsCertifying: with the liar in the
// suspect set the check certifies every step, whether the liar lies on it
// or not, naming the liar exactly on the steps it lies.
func TestVerifiedCheckIntermittentLiarKeepsCertifying(t *testing.T) {
	const k, n, d, b, liar = 3, 16, 1, 4, 1
	fx := newPrimedFixture(t, k, n, d, 6)
	primed, err := fx.code.NewPrimed(nil, []int{liar}, d, b)
	if err != nil || primed == nil {
		t.Fatalf("priming failed: %v", err)
	}
	for step, clean := range fx.rounds {
		results, want := clean, []int{}
		if step%2 == 0 {
			results, want = corrupt(clean, liar), []int{liar}
		}
		got, ok, err := primed.Decode(results, 1)
		if err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", step, ok, err)
		}
		if !slices.Equal(got.FaultyNodes, want) {
			t.Fatalf("step %d: faulty %v, want %v", step, got.FaultyNodes, want)
		}
		for m := range got.Outputs {
			if !slices.Equal(got.Outputs[m], fx.outputs[step][m]) {
				t.Fatalf("step %d machine %d: %v, want %v", step, m, got.Outputs[m], fx.outputs[step][m])
			}
		}
	}
}

// TestRandomizedRuleCatchesEveryLie holds a seeded Primed's randomized
// accept rule to its soundness claim over 1 000 secrets each: a lie the
// exact check sees is never accepted by the secret random combination. The
// code is K=4, N=20, d=1 (dim 4, radius 8); node 19 is suspected and lies
// every step, so the rule vouches for the other 15 rest rows and the
// suspect is predicted one by one. A lone corrupted unsuspected rest row
// must make the combination disagree, so the exact check runs and names
// it; a lying trusted row must make it disagree too, and the exact check
// then refuses the word.
func TestRandomizedRuleCatchesEveryLie(t *testing.T) {
	const k, n, d, l, suspect, secrets = 4, 20, 1, 2, 19, 1000
	code := newTestCode(t, k, n)
	gold := field.NewGoldilocks()
	dim := code.ResultDim(d)
	for _, tc := range []struct {
		name  string
		liar  func(secret uint64) int
		names bool // the exact check certifies the word and names the liar
	}{
		{"lone unsuspected rest row", func(secret uint64) int { return dim + int(secret%uint64(n-dim-1)) }, true},
		{"lying trusted row", func(secret uint64) int { return int(secret % uint64(dim)) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := randv2.New(randv2.NewPCG(9, 10))
			for secret := uint64(0); secret < secrets; secret++ {
				primed, err := code.NewPrimed(nil, []int{suspect}, d, 0)
				if err != nil || primed == nil {
					t.Fatalf("priming failed: %v", err)
				}
				primed.Randomize(secret, 11)
				clean := codeword(code, r, dim, l)
				lie(gold, r, clean[suspect], 0)
				for range 2 { // the second decode forms the rule
					if _, ok, err := primed.Decode(clean, 1); err != nil || !ok {
						t.Fatalf("secret %d: clean word refused: ok=%v err=%v", secret, ok, err)
					}
				}
				if primed.rnd == nil || len(primed.rnd.predict.rows) != 1 {
					t.Fatalf("secret %d: no randomized rule over the 15 unsuspected rest rows", secret)
				}
				liar := tc.liar(secret)
				results := codeword(code, r, dim, l)
				lie(gold, r, results[suspect], 1)
				lie(gold, r, results[liar], int(secret%l))
				if primed.rnd.accepts(code, primed.check, results, l, &primed.scratch) {
					t.Fatalf("secret %d: the random combination accepted row %d's lie", secret, liar)
				}
				got, ok, err := primed.Decode(results, 1)
				if err != nil || ok != tc.names {
					t.Fatalf("secret %d, liar %d: ok=%v err=%v, want ok=%v", secret, liar, ok, err, tc.names)
				}
				if !ok {
					continue
				}
				want, err := gaoDecode(code, nil, results, d)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDecode(gold, got, want) || !slices.Equal(got.FaultyNodes, []int{liar, suspect}) {
					t.Fatalf("secret %d, liar %d: decode %+v, rs.Decode gives %+v", secret, liar, got, want)
				}
			}
		})
	}
}

// decodeCase is one random received word for the differential test.
type decodeCase struct {
	field   int // 0 Goldilocks, 1 GF(2^8), 2 GF(2^8) behind the generic bulk adapter
	k, n, d int
	indices []int // nil: every row
	results [][]uint64
	errors  int
	// suspects and spare prime the verified-subset check of the Primed leg.
	suspects []int
	spare    int
}

func (c decodeCase) String() string {
	return fmt.Sprintf("field=%d K=%d N=%d d=%d indices=%v errors=%d suspects=%v spare=%d results=%v",
		c.field, c.k, c.n, c.d, c.indices, c.errors, c.suspects, c.spare, c.results)
}

// TestQuickDecodeMatchesGaoOnly is the differential against the Gao-only
// reference on words with 0..radius+2 errors, full and erasure layouts
// (some with fewer rows than the dimension), degree 1 and 2, native and
// adapted bulk kernels. The DecodeOutputs* entries must match it exactly
// in outputs, FaultyNodes and error-ness on every word. A Primed built for
// the word's layout with a random suspect set and spare must, whenever it
// certifies, return exactly the reference's decode, and must never certify
// a word the reference rejects.
func TestQuickDecodeMatchesGaoOnly(t *testing.T) {
	gf, err := field.NewGF2m(8)
	if err != nil {
		t.Fatal(err)
	}
	fields := []field.Field[uint64]{field.NewGoldilocks(), gf, scalarOnly[uint64]{gf}}
	codes := map[[3]int]*Code[uint64]{}
	codeFor := func(c decodeCase) *Code[uint64] {
		key := [3]int{c.field, c.k, c.n}
		if codes[key] == nil {
			code, err := New(poly.NewRing(fields[c.field]), c.k, c.n)
			if err != nil {
				t.Fatal(err)
			}
			codes[key] = code
		}
		return codes[key]
	}
	gen := func(r *randv2.Rand) decodeCase {
		c := decodeCase{field: int(r.Uint64N(3)), k: 1 + int(r.Uint64N(4)), d: 1 + int(r.Uint64N(2))}
		dim := c.d*(c.k-1) + 1
		c.n = max(c.k, dim+int(r.Uint64N(9)))
		code, f := codeFor(c), fields[c.field]
		full := codeword(code, r, dim, 1+int(r.Uint64N(3)))
		rows := c.n
		if r.Uint64N(2) == 0 { // erasure layout: drop up to half the rows
			rows = c.n - int(r.Uint64N(uint64(c.n/2+1)))
			c.indices = r.Perm(c.n)[:rows]
			slices.Sort(c.indices)
		}
		for row := 0; row < rows; row++ {
			node := row
			if c.indices != nil {
				node = c.indices[row]
			}
			c.results = append(c.results, full[node])
		}
		c.errors = min(rows, int(r.Uint64N(uint64(max(rows-dim, 0)/2+3))))
		for _, row := range r.Perm(rows)[:c.errors] {
			lie(f, r, c.results[row], int(r.Uint64N(uint64(len(c.results[row])))))
		}
		c.suspects = r.Perm(c.n)[:r.Uint64N(uint64(c.n/2+1))]
		c.spare = int(r.Uint64N(uint64(max(rows-dim, 0)/2 + 1)))
		return c
	}
	cfg := &quick.Config{
		MaxCount: 600,
		Values: func(args []reflect.Value, src *randv1.Rand) {
			args[0] = reflect.ValueOf(gen(randv2.New(randv2.NewPCG(src.Uint64(), src.Uint64()))))
		},
	}
	accepted, rejected, certified, refused := 0, 0, 0, 0
	if err := quick.Check(func(c decodeCase) bool {
		code := codeFor(c)
		want, wantErr := gaoDecode(code, c.indices, c.results, c.d)
		var got *DecodeResult[uint64]
		var gotErr error
		if c.indices == nil {
			got, gotErr = code.DecodeOutputs(c.results, c.d)
		} else {
			got, gotErr = code.DecodeOutputsSubset(c.indices, c.results, c.d)
		}
		primed, err := code.NewPrimed(c.indices, c.suspects, c.d, c.spare)
		if err != nil {
			return false
		}
		if primed != nil {
			fast, ok, err := primed.Decode(c.results, 1+int(c.spare%3))
			switch {
			case err != nil:
				return false
			case !ok:
				refused++
			case wantErr != nil || !sameDecode(fields[c.field], fast, want):
				return false
			default:
				certified++
			}
		}
		if wantErr != nil {
			rejected++
			return gotErr != nil && errors.Is(gotErr, rs.ErrTooManyErrors) == errors.Is(wantErr, rs.ErrTooManyErrors)
		}
		accepted++
		return gotErr == nil && sameDecode(fields[c.field], got, want)
	}, cfg); err != nil {
		t.Error(err)
	}
	if accepted == 0 || rejected == 0 || certified == 0 || refused == 0 {
		t.Fatalf("generator is lopsided: %d decodable words, %d undecodable; primed check certified %d, refused %d",
			accepted, rejected, certified, refused)
	}
	t.Logf("%d decodable words, %d undecodable; primed check certified %d, refused %d", accepted, rejected, certified, refused)
}
