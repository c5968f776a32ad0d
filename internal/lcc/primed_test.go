package lcc

import (
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
)

// primedFixture builds a K-machine code on N nodes with a degree-d
// polynomial register transition and returns two rounds of clean result
// matrices (the second from the first round's next states), so tests can
// corrupt rows independently per "micro-step".
type primedFixture struct {
	code    *Code[uint64]
	degree  int
	rounds  [][][]uint64 // per round: N result rows
	outputs [][][]uint64 // per round: K expected decoded result vectors
}

func newPrimedFixture(t *testing.T, k, n, d, rounds int) *primedFixture {
	t.Helper()
	code := newTestCode(t, k, n)
	gold := field.NewGoldilocks()
	tr, err := sm.NewPolynomialRegister[uint64](gold, d)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]uint64, k)
	for i := range states {
		states[i] = []uint64{uint64(3*i + 1)}
	}
	fx := &primedFixture{code: code, degree: d}
	for r := 0; r < rounds; r++ {
		cmds := make([][]uint64, k)
		for i := range cmds {
			cmds[i] = []uint64{uint64(7*i + r + 2)}
		}
		codedStates, err := code.EncodeVectors(states)
		if err != nil {
			t.Fatal(err)
		}
		codedCmds, err := code.EncodeVectors(cmds)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]uint64, n)
		for i := range results {
			if results[i], err = tr.ApplyResult(codedStates[i], codedCmds[i]); err != nil {
				t.Fatal(err)
			}
		}
		expected := make([][]uint64, k)
		next := make([][]uint64, k)
		for i := range expected {
			if expected[i], err = tr.ApplyResult(states[i], cmds[i]); err != nil {
				t.Fatal(err)
			}
			st, _, err := tr.SplitResult(expected[i])
			if err != nil {
				t.Fatal(err)
			}
			next[i] = append([]uint64(nil), st...)
		}
		fx.rounds = append(fx.rounds, results)
		fx.outputs = append(fx.outputs, expected)
		states = next
	}
	return fx
}

func corrupt(results [][]uint64, nodes ...int) [][]uint64 {
	out := make([][]uint64, len(results))
	for i, row := range results {
		out[i] = append([]uint64(nil), row...)
	}
	for _, i := range nodes {
		out[i][0] += 17
	}
	return out
}

func assertSameDecode(t *testing.T, got, full *DecodeResult[uint64]) {
	t.Helper()
	if !slices.Equal(got.FaultyNodes, full.FaultyNodes) {
		t.Fatalf("faulty sets differ: primed %v, full %v", got.FaultyNodes, full.FaultyNodes)
	}
	for k := range full.Outputs {
		if !slices.Equal(got.Outputs[k], full.Outputs[k]) {
			t.Fatalf("machine %d outputs differ: primed %v, full %v", k, got.Outputs[k], full.Outputs[k])
		}
	}
}

func TestPrimedMatchesFullDecodeStableLiars(t *testing.T) {
	const k, n, d, b = 4, 20, 1, 5
	fx := newPrimedFixture(t, k, n, d, 2)
	liars := []int{1, 6, 11, 17}
	first := corrupt(fx.rounds[0], liars...)
	fullFirst, err := fx.code.DecodeOutputs(first, d)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fullFirst.FaultyNodes, liars) {
		t.Fatalf("full decode located %v, want %v", fullFirst.FaultyNodes, liars)
	}
	primed, err := fx.code.NewPrimed(nil, fullFirst.FaultyNodes, d, b)
	if err != nil {
		t.Fatal(err)
	}
	if primed == nil {
		t.Fatal("capacity admits priming: N=20, dim=4, b=5")
	}
	second := corrupt(fx.rounds[1], liars...)
	got, ok, err := primed.Decode(second, 1)
	if err != nil || !ok {
		t.Fatalf("primed decode failed: ok=%v err=%v", ok, err)
	}
	full, err := fx.code.DecodeOutputs(second, d)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDecode(t, got, full)
}

// TestPrimedDecodeIntoReusesCallerBuffers: decoding into a caller-owned
// result matches Decode's, refused words included, keeps the caller's
// buffers from call to call, and allocates nothing once they are shaped.
func TestPrimedDecodeIntoReusesCallerBuffers(t *testing.T) {
	const k, n, d, b = 4, 20, 1, 5
	fx := newPrimedFixture(t, k, n, d, 2)
	liars := []int{1, 6, 11, 17}
	primed, err := fx.code.NewPrimed(nil, liars, d, b)
	if err != nil || primed == nil {
		t.Fatalf("priming: %v, %v", primed, err)
	}
	var dst DecodeResult[uint64]
	for r, round := range fx.rounds {
		word := corrupt(round, liars...)
		want, wantOK, err := primed.Decode(word, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := dst.Outputs
		ok, err := primed.DecodeInto(&dst, word)
		if err != nil || ok != wantOK || !ok {
			t.Fatalf("round %d: DecodeInto ok=%v err=%v, Decode ok=%v", r, ok, err, wantOK)
		}
		assertSameDecode(t, &dst, want)
		if r > 0 && &dst.Outputs[0][0] != &before[0][0] {
			t.Errorf("round %d: DecodeInto replaced the caller's outputs", r)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = primed.DecodeInto(&dst, word) }); allocs != 0 {
			t.Errorf("round %d: DecodeInto allocated %.0f times per call, want 0", r, allocs)
		}
	}
	// A new liar among the trusted rows: both entries refuse.
	word := corrupt(fx.rounds[1], 0, 1, 6, 11, 17)
	if _, ok, _ := primed.Decode(word, 1); ok {
		t.Fatal("Decode certified a word with a lying trusted row")
	}
	if ok, err := primed.DecodeInto(&dst, word); ok || err != nil {
		t.Fatalf("DecodeInto on a lying trusted row: ok=%v err=%v, want a refusal", ok, err)
	}
}

func TestPrimedRecoveredSuspectNotAccused(t *testing.T) {
	// A node that lied in the priming round but is clean now must not
	// appear in FaultyNodes: detection is recomputed per decode.
	const k, n, d, b = 3, 16, 1, 4
	fx := newPrimedFixture(t, k, n, d, 2)
	primed, err := fx.code.NewPrimed(nil, []int{2, 9}, d, b)
	if err != nil || primed == nil {
		t.Fatalf("priming failed: %v", err)
	}
	second := corrupt(fx.rounds[1], 9) // node 2 recovered, node 9 still lying
	got, ok, err := primed.Decode(second, 1)
	if err != nil || !ok {
		t.Fatalf("primed decode failed: ok=%v err=%v", ok, err)
	}
	if !slices.Equal(got.FaultyNodes, []int{9}) {
		t.Fatalf("faulty = %v, want [9]", got.FaultyNodes)
	}
}

func TestPrimedFallsBackOnNewLiar(t *testing.T) {
	// dim = 3 and suspects {2, 9}: rows 0, 1 and 3 are trusted. A new liar
	// inside them corrupts the candidate itself: the fast path must refuse
	// (ok=false), never certify a wrong result.
	const k, n, d, b = 3, 16, 1, 4
	fx := newPrimedFixture(t, k, n, d, 2)
	primed, err := fx.code.NewPrimed(nil, []int{2, 9}, d, b)
	if err != nil || primed == nil {
		t.Fatalf("priming failed: %v", err)
	}
	for _, liar := range []int{0, 1, 3} {
		second := corrupt(fx.rounds[1], 2, 9, liar)
		got, ok, err := primed.Decode(second, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("certified a word with trusted row %d lying: %+v", liar, got)
		}
		// The full decoder handles it fine.
		full, err := fx.code.DecodeOutputs(second, d)
		if err != nil {
			t.Fatal(err)
		}
		want := []int{liar, 2, 9}
		slices.Sort(want)
		if !slices.Equal(full.FaultyNodes, want) {
			t.Fatalf("full decode located %v, want %v", full.FaultyNodes, want)
		}
	}
	// A new liar outside the trusted rows is within the radius here, so the
	// check may certify — but only the very decode the full decoder gives,
	// with the new liar named.
	second := corrupt(fx.rounds[1], 2, 9, 13)
	full, err := fx.code.DecodeOutputs(second, d)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(full.FaultyNodes, []int{2, 9, 13}) {
		t.Fatalf("full decode located %v", full.FaultyNodes)
	}
	got, ok, err := primed.Decode(second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		assertSameDecode(t, got, full)
		for m := range got.Outputs {
			if !slices.Equal(got.Outputs[m], fx.outputs[1][m]) {
				t.Fatalf("machine %d mis-certified: %v, want %v", m, got.Outputs[m], fx.outputs[1][m])
			}
		}
	}
}

func TestPrimedSubsetRows(t *testing.T) {
	// Partially synchronous layout: only a subset of rows arrived.
	const k, n, d, b = 3, 20, 1, 4
	fx := newPrimedFixture(t, k, n, d, 2)
	indices := make([]int, 0, n-2)
	for i := 0; i < n; i++ {
		if i != 4 && i != 15 { // two silent nodes
			indices = append(indices, i)
		}
	}
	sub := func(results [][]uint64) [][]uint64 {
		out := make([][]uint64, len(indices))
		for r, idx := range indices {
			out[r] = results[idx]
		}
		return out
	}
	second := corrupt(fx.rounds[1], 7)
	primed, err := fx.code.NewPrimed(indices, []int{7}, d, b)
	if err != nil || primed == nil {
		t.Fatalf("priming failed: %v", err)
	}
	got, ok, err := primed.Decode(sub(second), 1)
	if err != nil || !ok {
		t.Fatalf("subset primed decode failed: ok=%v err=%v", ok, err)
	}
	full, err := fx.code.DecodeOutputsSubset(indices, sub(second), d)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDecode(t, got, full)
}

func TestPrimedRefusesBelowCapacity(t *testing.T) {
	// Fewer than dim + maxFaults unsuspected rows: maxFaults fresh liars
	// could leave no clean choice of trusted rows. The check would still be
	// sound (see subsetCheck), but priming on suspicion this broad is
	// likely to refuse and cost a check on top of the full decode, so
	// NewPrimed declines it.
	const k, n, d = 4, 12, 2
	code := newTestCode(t, k, n)
	// dim = d(K-1)+1 = 7; with b = 3 we need 10 trusted rows, but 3
	// suspects leave only 9.
	primed, err := code.NewPrimed(nil, []int{0, 1, 2}, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if primed != nil {
		t.Fatal("priming must refuse when trusted rows < dim + maxFaults")
	}
}

// primeCost returns the field operations one NewPrimed call charges cf.
func primeCost(t *testing.T, code *Code[uint64], cf *field.Counting[uint64], indices, suspects []int, d int) field.OpCounts {
	t.Helper()
	before := cf.Counts()
	p, err := code.NewPrimed(indices, suspects, d, 0)
	if err != nil || p == nil {
		t.Fatalf("NewPrimed(%v, %v): %v, %v", indices, suspects, p, err)
	}
	return cf.Counts().Sub(before)
}

// countingCode returns a K=4, N=24 code over a counting Goldilocks field.
func countingCode(t *testing.T) (*Code[uint64], *field.Counting[uint64]) {
	t.Helper()
	cf := field.NewCounting[uint64](field.NewGoldilocks())
	code, err := New(poly.NewRing[uint64](cf), 4, 24)
	if err != nil {
		t.Fatal(err)
	}
	return code, cf
}

// TestPrimedChargesOneBuild primes suspect layouts again and again on one
// counting Code: every priming charges the field exactly what building its
// check counts on a fresh Code, inversions included, however often the
// layout was primed before. The check of the honest layout (every row,
// rows 0..dim-1 trusted) is the one exception: it is charged once per
// Code, on its first priming.
func TestPrimedChargesOneBuild(t *testing.T) {
	const d = 1
	subset := []int{0, 1, 2, 3, 5, 6, 8, 9, 10, 12, 13, 14, 15, 16, 17, 19, 20, 21, 22}
	for _, tc := range []struct {
		name              string
		indices, suspects []int
	}{
		{"all rows", nil, []int{1, 5, 9}},
		{"subset", subset, []int{2, 13}},
		{"subset, no suspects", subset, nil},
	} {
		fresh, freshCounts := countingCode(t)
		build := primeCost(t, fresh, freshCounts, tc.indices, tc.suspects, d)
		if build.Invs != 2 || build.Muls == 0 {
			t.Fatalf("%s: one build counted %+v, want two inversions and some multiplications", tc.name, build)
		}
		code, cf := countingCode(t)
		for i := range 3 {
			if got := primeCost(t, code, cf, tc.indices, tc.suspects, d); got != build {
				t.Errorf("%s: priming %d charged %+v, one build counts %+v", tc.name, i, got, build)
			}
		}
	}
	code, cf := countingCode(t)
	if first := primeCost(t, code, cf, nil, nil, d); first.Invs != 2 {
		t.Errorf("the honest layout's first priming charged %+v, want one build", first)
	}
	if again := primeCost(t, code, cf, nil, []int{20}, d); again != (field.OpCounts{}) {
		t.Errorf("the honest layout primed again charged %+v, want nothing", again)
	}
}

// TestCheckLookupAllocatesNothing: finding a built check in the Code's
// cache allocates nothing, on the honest layout and on a suspect one.
func TestCheckLookupAllocatesNothing(t *testing.T) {
	code, _ := countingCode(t)
	dim := code.ResultDim(1)
	for _, suspects := range [][]int{nil, {1, 5, 9}} {
		if chk, err := code.checkFor(nil, code.N(), dim, suspects, 0); err != nil || chk == nil {
			t.Fatalf("suspects %v: %v, %v", suspects, chk, err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			_, _ = code.checkFor(nil, code.N(), dim, suspects, 0)
		}); allocs != 0 {
			t.Errorf("suspects %v: %.0f allocations per lookup, want 0", suspects, allocs)
		}
	}
}
