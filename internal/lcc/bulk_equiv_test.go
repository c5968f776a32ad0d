package lcc

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
	"codedsm/internal/rs"
)

// scalarOnly hides any Bulk implementation of the wrapped field, forcing
// every kernel through field.AsBulk's generic per-element adapter — the
// fallback path a plain Field (or a Counting wrapper we want counted
// per-element) takes.
type scalarOnly[E comparable] struct{ field.Field[E] }

// rootOnly additionally forwards NTT capability, so the generic path keeps
// the same multiplication algorithm selection as the native path.
type rootOnly[E comparable] struct{ field.NTTField[E] }

func buildCodes(t *testing.T, k, n int) (native, generic *Code[uint64]) {
	t.Helper()
	gold := field.NewGoldilocks()
	nativeRing := poly.NewRing[uint64](gold)
	genericRing := poly.NewRing[uint64](rootOnly[uint64]{gold})
	if _, ok := any(gold).(field.Bulk[uint64]); !ok {
		t.Fatal("goldilocks must be natively bulk-capable")
	}
	if _, native := any(rootOnly[uint64]{gold}).(field.Bulk[uint64]); native {
		t.Fatal("wrapper must hide the bulk capability")
	}
	nc, err := New(nativeRing, k, n)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := New(genericRing, k, n)
	if err != nil {
		t.Fatal(err)
	}
	return nc, gc
}

// TestEncodeDecodeBulkMatchesGeneric proves the devirtualized kernels leave
// every observable output bit-identical to the generic interface path:
// coefficients, encodings (sequential and parallel), decodings (full and
// subset), detected faulty sets, and error behaviour beyond the radius.
func TestEncodeDecodeBulkMatchesGeneric(t *testing.T) {
	const k, n, l, degree = 5, 24, 7, 2
	native, generic := buildCodes(t, k, n)
	for i := range native.Coeffs() {
		for j := range native.Coeffs()[i] {
			if native.Coeffs()[i][j] != generic.Coeffs()[i][j] {
				t.Fatalf("coefficient (%d,%d) diverged", i, j)
			}
		}
	}
	rng := rand.New(rand.NewPCG(3, 4))
	gold := field.NewGoldilocks()
	values := make([][]uint64, k)
	for i := range values {
		values[i] = field.RandVec[uint64](gold, rng, l)
	}
	encN, err := native.EncodeVectors(values)
	if err != nil {
		t.Fatal(err)
	}
	encG, err := generic.EncodeVectors(values)
	if err != nil {
		t.Fatal(err)
	}
	for i := range encN {
		if !slices.Equal(encN[i], encG[i]) {
			t.Fatalf("encoding row %d diverged", i)
		}
	}

	// A degree-d execution: results[i][j] = enc[i][j]^degree, then corrupt up
	// to the radius so the faulty-set logic is exercised too.
	results := make([][]uint64, n)
	for i := range results {
		results[i] = make([]uint64, l)
		for j := range results[i] {
			results[i][j] = field.Exp[uint64](gold, encN[i][j], degree)
		}
	}
	dim := native.ResultDim(degree)
	radius := (n - dim) / 2
	for b := 0; b < radius; b++ {
		results[2*b][b%l] += 3
	}
	decN, err := native.DecodeOutputs(results, degree)
	if err != nil {
		t.Fatal(err)
	}
	decG, err := generic.DecodeOutputs(results, degree)
	if err != nil {
		t.Fatal(err)
	}
	for ki := range decN.Outputs {
		if !slices.Equal(decN.Outputs[ki], decG.Outputs[ki]) {
			t.Fatalf("decoded output %d diverged", ki)
		}
	}
	if len(decN.FaultyNodes) != radius {
		t.Fatalf("expected %d faulty nodes, got %v", radius, decN.FaultyNodes)
	}
	for i := range decN.FaultyNodes {
		if decN.FaultyNodes[i] != decG.FaultyNodes[i] {
			t.Fatalf("faulty sets diverged: %v vs %v", decN.FaultyNodes, decG.FaultyNodes)
		}
	}

	// Subset decode: drop one row, keep the corruptions decodable.
	indices := make([]int, 0, n-1)
	sub := make([][]uint64, 0, n-1)
	for i := 1; i < n; i++ {
		indices = append(indices, i)
		sub = append(sub, results[i])
	}
	subN, err := native.DecodeOutputsSubset(indices, sub, degree)
	if err != nil {
		t.Fatal(err)
	}
	subG, err := generic.DecodeOutputsSubset(indices, sub, degree)
	if err != nil {
		t.Fatal(err)
	}
	for ki := range subN.Outputs {
		if !slices.Equal(subN.Outputs[ki], subG.Outputs[ki]) {
			t.Fatalf("subset decoded output %d diverged", ki)
		}
	}

	// Error path: corrupt component 0 in well over radius rows with random
	// garbage (a structured offset could itself be a codeword); both paths
	// must reject alike.
	for i := range results {
		results[i][0] = gold.Add(results[i][0], gold.Rand(rng)|1)
	}
	_, errN := native.DecodeOutputs(results, degree)
	_, errG := generic.DecodeOutputs(results, degree)
	if !errors.Is(errN, rs.ErrTooManyErrors) || !errors.Is(errG, rs.ErrTooManyErrors) {
		t.Fatalf("beyond-radius decode: native err %v, generic err %v", errN, errG)
	}
}

// TestCountingTotalsUnchangedByBulkKernels pins the accounting acceptance
// criterion: for identical encode/decode work, a Counting field measured
// per-element (its Bulk capability hidden, i.e. the pre-kernel generic
// path) reports exactly the operation totals the bulk-counting path does.
func TestCountingTotalsUnchangedByBulkKernels(t *testing.T) {
	const k, n, l, degree = 4, 20, 5, 2
	gold := field.NewGoldilocks()
	run := func(f field.Field[uint64]) field.OpCounts {
		t.Helper()
		counter := field.NewCounting[uint64](gold)
		var measured field.Field[uint64]
		if f == nil {
			measured = counter // bulk path: Counting's own kernels
		} else {
			measured = scalarOnly[uint64]{counter} // per-element scalar path
		}
		ring := poly.NewRing[uint64](measured)
		code, err := New(ring, k, n)
		if err != nil {
			t.Fatal(err)
		}
		counter.Reset()
		rng := rand.New(rand.NewPCG(9, 10))
		values := make([][]uint64, k)
		for i := range values {
			values[i] = field.RandVec[uint64](gold, rng, l)
		}
		enc, err := code.EncodeVectors(values)
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]uint64, n)
		for i := range results {
			results[i] = make([]uint64, l)
			for j := range results[i] {
				results[i][j] = gold.Mul(enc[i][j], enc[i][j])
			}
		}
		results[3][0]++
		if _, err := code.DecodeOutputs(results, degree); err != nil {
			t.Fatal(err)
		}
		return counter.Counts()
	}
	scalar := run(gold) // any non-nil sentinel selects the scalar wrapper
	bulk := run(nil)
	if scalar.Total() == 0 {
		t.Fatal("scalar path counted nothing")
	}
	if scalar != bulk {
		t.Fatalf("op totals diverged: scalar %+v, bulk %+v", scalar, bulk)
	}
}
