package field

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// scalarOnly hides any Bulk implementation of the wrapped field, forcing
// AsBulk onto the generic adapter.
type scalarOnly[E comparable] struct{ Field[E] }

// refKernels applies every kernel the slow, obviously-correct way through
// the scalar Field interface.
type refKernels[E comparable] struct{ f Field[E] }

func (r refKernels[E]) addVec(a, b []E) []E {
	out := make([]E, len(a))
	for i := range a {
		out[i] = r.f.Add(a[i], b[i])
	}
	return out
}

func (r refKernels[E]) subVec(a, b []E) []E {
	out := make([]E, len(a))
	for i := range a {
		out[i] = r.f.Sub(a[i], b[i])
	}
	return out
}

func (r refKernels[E]) mulVec(a, b []E) []E {
	out := make([]E, len(a))
	for i := range a {
		out[i] = r.f.Mul(a[i], b[i])
	}
	return out
}

func bulkFieldsUnderTest(t *testing.T) map[string]Bulk[uint64] {
	t.Helper()
	gold := NewGoldilocks()
	gf8, err := NewGF2m(8)
	if err != nil {
		t.Fatal(err)
	}
	gf3, err := NewGF2m(3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Bulk[uint64]{
		"goldilocks":          gold,
		"gf2m8":               gf8,
		"gf2m3":               gf3,
		"counting/goldilocks": AsBulk[uint64](NewCounting[uint64](gold)),
		"counting/gf2m8":      AsBulk[uint64](NewCounting[uint64](gf8)),
		"generic/goldilocks":  AsBulk[uint64](scalarOnly[uint64]{gold}),
		"generic/gf2m8":       AsBulk[uint64](scalarOnly[uint64]{gf8}),
	}
}

// TestBulkKernelsMatchScalar proves every kernel is bit-identical to the
// per-element scalar loops, for native, counting, and generic-adapter
// resolutions, including the dst-aliases-input cases the hot paths rely on.
func TestBulkKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	for name, bf := range bulkFieldsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			ref := refKernels[uint64]{bf}
			for _, n := range []int{0, 1, 2, 3, 17, 64} {
				a := RandVec[uint64](bf, rng, n)
				b := RandVec[uint64](bf, rng, n)
				c := bf.Rand(rng)
				check := func(kernel string, got, want []uint64) {
					t.Helper()
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d %s: got %v want %v", n, kernel, got, want)
					}
				}
				dst := make([]uint64, n)

				bf.AddVec(dst, a, b)
				check("AddVec", dst, ref.addVec(a, b))
				bf.SubVec(dst, a, b)
				check("SubVec", dst, ref.subVec(a, b))
				bf.MulVec(dst, a, b)
				check("MulVec", dst, ref.mulVec(a, b))

				bf.ScaleVec(dst, c, a)
				check("ScaleVec", dst, ref.mulVec(repeat(c, n), a))
				bf.ScaleVec(dst, 0, a)
				check("ScaleVec(0)", dst, make([]uint64, n))

				acc := append([]uint64(nil), b...)
				bf.ScaleAccVec(acc, c, a)
				check("ScaleAccVec", acc, ref.addVec(b, ref.mulVec(repeat(c, n), a)))

				acc = append([]uint64(nil), b...)
				bf.SubScaleVec(acc, c, a)
				check("SubScaleVec", acc, ref.subVec(b, ref.mulVec(repeat(c, n), a)))

				wantDot := bf.Zero()
				for i := range a {
					wantDot = bf.Add(wantDot, bf.Mul(a[i], b[i]))
				}
				if got := bf.DotVec(a, b); got != wantDot {
					t.Fatalf("n=%d DotVec: got %v want %v", n, got, wantDot)
				}

				bf.SubScalarVec(dst, a, c)
				check("SubScalarVec", dst, ref.subVec(a, repeat(c, n)))
				bf.ScalarSubVec(dst, c, a)
				check("ScalarSubVec", dst, ref.subVec(repeat(c, n), a))

				acc = append([]uint64(nil), b...)
				bf.HornerVec(acc, a, c)
				check("HornerVec", acc, ref.addVec(ref.mulVec(b, a), repeat(c, n)))

				// Aliasing: dst == a must behave as if computed out of place.
				alias := append([]uint64(nil), a...)
				bf.MulVec(alias, alias, b)
				check("MulVec(aliased)", alias, ref.mulVec(a, b))
				alias = append([]uint64(nil), a...)
				bf.ScaleVec(alias, c, alias)
				check("ScaleVec(aliased)", alias, ref.mulVec(repeat(c, n), a))

				for _, terms := range []int{0, 1, 2, 21, 64} {
					cs := RandVec[uint64](bf, rng, terms)
					vecs := make([][]uint64, terms)
					for k := range vecs {
						vecs[k] = RandVec[uint64](bf, rng, n)
					}
					acc = append([]uint64(nil), b...)
					bf.LinCombAccVec(acc, cs, vecs)
					want := ref.linCombAcc(b, cs, vecs)
					check(fmt.Sprintf("LinCombAccVec(%d terms)", terms), acc, want)
					if terms < 2 {
						continue
					}
					// dst aliasing a middle term: every term is read before
					// dst[i] is written, so the result is the out-of-place one.
					alias = append([]uint64(nil), vecs[terms/2]...)
					aliased := append([][]uint64(nil), vecs...)
					aliased[terms/2] = alias
					bf.LinCombAccVec(alias, cs, aliased)
					check(fmt.Sprintf("LinCombAccVec(%d terms, aliased)", terms), alias, ref.linCombAcc(vecs[terms/2], cs, vecs))
				}
				// LinCombAccRows over a table's rows named by index, in an
				// order of their own and with a repeat, is LinCombAccVec
				// over the rows it names.
				table := make([][]uint64, 8)
				for r := range table {
					table[r] = RandVec[uint64](bf, rng, n)
				}
				for _, idx := range [][]int{nil, {3}, {6, 0, 3, 3, 7}, {0, 1, 2, 3, 4, 5, 6, 7}} {
					cs := RandVec[uint64](bf, rng, len(idx))
					named := make([][]uint64, len(idx))
					for k, r := range idx {
						named[k] = table[r]
					}
					acc = append([]uint64(nil), b...)
					bf.LinCombAccRows(acc, cs, table, idx)
					check(fmt.Sprintf("LinCombAccRows(%v)", idx), acc, ref.linCombAcc(b, cs, named))
				}
			}
			for _, shape := range [][2]int{{1, 1}, {22, 1}, {64, 22}} {
				rows, cols := shape[0], shape[1]
				m := RandVec[uint64](bf, rng, rows*cols)
				v := RandVec[uint64](bf, rng, cols)
				got := RandVec[uint64](bf, rng, rows) // overwritten, not accumulated
				bf.MatVec(got, m, v)
				if want := ref.matVec(m, v, rows); !slices.Equal(got, want) {
					t.Fatalf("MatVec %dx%d: got %v want %v", rows, cols, got, want)
				}
			}
		})
	}
}

// matVec is the row-major rows x len(v) matrix m times v, as the
// ScaleVec-then-ScaleAccVec chain over m's columns computes it.
func (r refKernels[E]) matVec(m, v []E, rows int) []E {
	out := make([]E, rows)
	for t, x := range v {
		for i := range out {
			p := r.f.Mul(m[i*len(v)+t], x)
			if t == 0 {
				out[i] = p
			} else {
				out[i] = r.f.Add(out[i], p)
			}
		}
	}
	return out
}

// linCombAcc is dst + Σ_k cs[k]·vecs[k], out of place, as the ScaleAccVec
// chain computes it.
func (r refKernels[E]) linCombAcc(dst, cs []E, vecs [][]E) []E {
	out := append([]E(nil), dst...)
	for k, v := range vecs {
		for i := range out {
			out[i] = r.f.Add(out[i], r.f.Mul(cs[k], v[i]))
		}
	}
	return out
}

// TestGoldilocksLinCombMaximalCarries drives the lazily reduced Goldilocks
// combination at its worst case — every coefficient, element and
// accumulator p-1, so every 128-bit product is maximal and the carry word
// grows with the term count — and requires the ScaleAccVec chain's result.
func TestGoldilocksLinCombMaximalCarries(t *testing.T) {
	gold := NewGoldilocks()
	const pm1, n = GoldilocksModulus - 1, 64
	for _, terms := range []int{1, 2, 21, 64, 1000} {
		cs := repeat(pm1, terms)
		vecs := make([][]uint64, terms)
		for k := range vecs {
			vecs[k] = repeat(pm1, n)
		}
		want := repeat(pm1, n)
		for k := range vecs {
			gold.ScaleAccVec(want, cs[k], vecs[k])
		}
		got := repeat(pm1, n)
		gold.LinCombAccVec(got, cs, vecs)
		if !slices.Equal(got, want) {
			t.Fatalf("%d terms: got %v want %v", terms, got[:1], want[:1])
		}
	}
}

// TestGoldilocksMatVecMaximalCarries is TestGoldilocksLinCombMaximalCarries
// for MatVec: every matrix entry and vector element p-1, so every product
// is maximal, at up to 1000 columns.
func TestGoldilocksMatVecMaximalCarries(t *testing.T) {
	gold := NewGoldilocks()
	const pm1, rows = GoldilocksModulus - 1, 64
	for _, cols := range []int{1, 2, 22, 64, 1000} {
		m, v := repeat(pm1, rows*cols), repeat(pm1, cols)
		col := repeat(pm1, rows)
		want := make([]uint64, rows)
		gold.ScaleVec(want, v[0], col)
		for range cols - 1 {
			gold.ScaleAccVec(want, pm1, col)
		}
		got := make([]uint64, rows)
		gold.MatVec(got, m, v)
		if !slices.Equal(got, want) {
			t.Fatalf("%d columns: got %v want %v", cols, got[:1], want[:1])
		}
	}
}

func repeat(c uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// TestBatchInvIntoMatchesBatchInv covers success, aliasing, and the
// error path (zero element) for every bulk resolution.
func TestBatchInvIntoMatchesBatchInv(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for name, bf := range bulkFieldsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1, 5, 33} {
				xs := make([]uint64, n)
				for i := range xs {
					for xs[i] == 0 {
						xs[i] = bf.Rand(rng)
					}
				}
				want := make([]uint64, n)
				for i, x := range xs {
					inv, err := bf.Inv(x)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = inv
				}
				dst := make([]uint64, n)
				if err := bf.BatchInvInto(dst, xs); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if !slices.Equal(dst, want) {
					t.Fatalf("n=%d: BatchInvInto %v want %v", n, dst, want)
				}
				if n > 0 {
					withZero := append([]uint64(nil), xs...)
					withZero[n/2] = 0
					if err := bf.BatchInvInto(dst, withZero); !errors.Is(err, ErrDivisionByZero) {
						t.Fatalf("n=%d: zero input: got %v", n, err)
					}
				}
			}
		})
	}
}

// TestCountingBulkTotalsMatchScalar pins the core accounting invariant: a
// kernel call on a Counting field charges exactly the operations the
// replaced scalar loop would have, so the paper's throughput metric is
// unchanged by the devirtualized path.
func TestCountingBulkTotalsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	gold := NewGoldilocks()
	n := 37
	a := RandVec[uint64](gold, rng, n)
	b := RandVec[uint64](gold, rng, n)
	c := gold.Rand(rng)
	for i := range a {
		for a[i] == 0 {
			a[i] = gold.Rand(rng)
		}
	}

	scalar := NewCounting[uint64](gold)
	scalarBulk := AsBulk[uint64](scalarOnly[uint64]{Field[uint64](scalar)})
	bulk := AsBulk[uint64](NewCounting[uint64](gold))
	if _, isCounting := bulk.(*Counting[uint64]); !isCounting {
		t.Fatal("Counting must resolve to its own bulk implementation")
	}

	dst := make([]uint64, n)
	terms := [][]uint64{a, b, a, b, a}
	cs := RandVec[uint64](gold, rng, len(terms))
	matrix := RandVec[uint64](gold, rng, n*len(terms))
	run := func(k Bulk[uint64]) {
		k.AddVec(dst, a, b)
		k.SubVec(dst, a, b)
		k.MulVec(dst, a, b)
		k.ScaleVec(dst, c, a)
		k.ScaleAccVec(dst, c, a)
		k.LinCombAccVec(dst, cs, terms)
		k.LinCombAccRows(dst, cs, terms, []int{4, 0, 2})
		k.MatVec(dst, matrix, cs)
		k.SubScaleVec(dst, c, a)
		k.DotVec(a, b)
		k.SubScalarVec(dst, a, c)
		k.ScalarSubVec(dst, c, a)
		k.HornerVec(dst, a, c)
		if err := k.BatchInvInto(dst, a); err != nil {
			t.Fatal(err)
		}
		withZero := append([]uint64(nil), a...)
		withZero[n/2] = 0
		if err := k.BatchInvInto(dst, withZero); !errors.Is(err, ErrDivisionByZero) {
			t.Fatalf("zero input: got %v", err)
		}
	}
	run(scalarBulk) // generic adapter over the counting field: per-element calls
	run(bulk)       // counting bulk kernels: one charge per vector
	want := scalar.Counts()
	got := bulk.(*Counting[uint64]).Counts()
	if want == (OpCounts{}) {
		t.Fatal("scalar reference counted nothing")
	}
	if got != want {
		t.Fatalf("bulk counting totals %+v, scalar totals %+v", got, want)
	}

	// LinCombAccVec's single charge is the ScaleAccVec chain's total.
	chain, comb := NewCounting[uint64](gold), NewCounting[uint64](gold)
	for k := range terms {
		chain.ScaleAccVec(dst, cs[k], terms[k])
	}
	comb.LinCombAccVec(dst, cs, terms)
	if chain.Counts() != comb.Counts() {
		t.Fatalf("LinCombAccVec charged %+v, the ScaleAccVec chain %+v", comb.Counts(), chain.Counts())
	}

	// LinCombAccRows charges exactly what LinCombAccVec charges for the
	// rows it names.
	named, rows := NewCounting[uint64](gold), NewCounting[uint64](gold)
	named.LinCombAccVec(dst, cs, [][]uint64{terms[4], terms[0], terms[2]})
	rows.LinCombAccRows(dst, cs, terms, []int{4, 0, 2})
	if named.Counts() != rows.Counts() {
		t.Fatalf("LinCombAccRows charged %+v, LinCombAccVec %+v", rows.Counts(), named.Counts())
	}

	// MatVec's single charge is ScaleVec's on the first column plus
	// LinCombAccVec's over the rest, so the verified-subset check counts
	// the same operations whichever kernel makes its prediction.
	chain, mv := NewCounting[uint64](gold), NewCounting[uint64](gold)
	chain.ScaleVec(dst, cs[0], terms[0])
	chain.LinCombAccVec(dst, cs[1:], terms[1:])
	mv.MatVec(dst, matrix, cs)
	if chain.Counts() != mv.Counts() {
		t.Fatalf("MatVec charged %+v, ScaleVec + LinCombAccVec %+v", mv.Counts(), chain.Counts())
	}
}
