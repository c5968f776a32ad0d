package lcc

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// buildRound fabricates one coded execution round: K states and commands,
// degree-d results at all N nodes, with faults corrupted coordinates.
func buildRound(t *testing.T, k, n, d, faults int) (*Code[uint64], [][]uint64) {
	t.Helper()
	gold := field.NewGoldilocks()
	ring := poly.NewRing[uint64](gold)
	code, err := New(ring, k, n)
	if err != nil {
		t.Fatal(err)
	}
	states := make([][]uint64, k)
	cmds := make([][]uint64, k)
	for i := 0; i < k; i++ {
		states[i] = []uint64{uint64(i + 1), uint64(2*i + 1)}
		cmds[i] = []uint64{uint64(7 * (i + 1)), uint64(i + 3)}
	}
	codedStates, err := code.EncodeVectors(states)
	if err != nil {
		t.Fatal(err)
	}
	codedCmds, err := code.EncodeVectors(cmds)
	if err != nil {
		t.Fatal(err)
	}
	// Elementwise degree-d "result": state^d + cmd (componentwise).
	results := make([][]uint64, n)
	for i := range results {
		row := make([]uint64, len(codedStates[i]))
		for j := range row {
			v := uint64(1)
			for e := 0; e < d; e++ {
				v = gold.Mul(v, codedStates[i][j])
			}
			row[j] = gold.Add(v, codedCmds[i][j])
		}
		results[i] = row
	}
	for i := 0; i < faults; i++ {
		results[(i*3+1)%n][0]++
	}
	return code, results
}

// TestPrimedDecodeParallelMatchesFullDecode: the primed decode is the one
// decode that fans its components across workers; at every worker count
// it must return exactly the full decoder's result.
func TestPrimedDecodeParallelMatchesFullDecode(t *testing.T) {
	const k, n, d = 4, 31, 2
	faults := SyncMaxFaults(n, k, d)
	code, results := buildRound(t, k, n, d, faults)
	full, err := code.DecodeOutputs(results, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.FaultyNodes) != faults {
		t.Fatalf("detected %d faulty nodes, injected %d", len(full.FaultyNodes), faults)
	}
	primed, err := code.NewPrimed(nil, full.FaultyNodes, d, faults)
	if err != nil || primed == nil {
		t.Fatalf("priming failed: %v", err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, ok, err := primed.Decode(results, workers)
		if err != nil || !ok {
			t.Fatalf("workers=%d: ok=%v err=%v", workers, ok, err)
		}
		if !reflect.DeepEqual(full, got) {
			t.Fatalf("workers=%d: primed decode diverged from the full decode", workers)
		}
	}
}

func TestDecodeOutputsSubsetFullIndexMatchesPlain(t *testing.T) {
	const k, n, d = 3, 24, 1
	code, results := buildRound(t, k, n, d, 2)
	// Proper subset: drop the last 4 nodes.
	indices := make([]int, n-4)
	sub := make([][]uint64, n-4)
	for i := range indices {
		indices[i] = i
		sub[i] = results[i]
	}
	dec, err := code.DecodeOutputsSubset(indices, sub, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.FaultyNodes) != 2 {
		t.Fatalf("subset decode located %v, injected 2 faults", dec.FaultyNodes)
	}
	// Full-index "subset" must agree with the plain decode.
	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	whole, err := code.DecodeOutputs(results, d)
	if err != nil {
		t.Fatal(err)
	}
	asSubset, err := code.DecodeOutputsSubset(full, results, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole, asSubset) {
		t.Fatal("full-index subset decode diverged from plain decode")
	}
	if _, err := code.DecodeOutputsSubset(nil, results, d); err == nil {
		t.Fatal("nil indices must fail")
	}
}

// TestConcurrentDecodesShareOneCode exercises the codesByDim cache under
// concurrent decoders — the cluster's nodes decode the same round in
// parallel against one shared Code (run with -race).
func TestConcurrentDecodesShareOneCode(t *testing.T) {
	const k, n, d = 3, 20, 2
	code, results := buildRound(t, k, n, d, 1)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Alternate degrees so the cache is hit and populated while
			// decodes are in flight.
			if g%2 == 0 {
				_, errs[g] = code.DecodeOutputs(results, d)
			} else {
				_, errs[g] = code.DecodeOutputs(results, d+1)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// BenchmarkPrimedDecodeParallel times the primed decode's component
// fan-out on wide vectors, the suspects being the corrupted nodes.
func BenchmarkPrimedDecodeParallel(b *testing.B) {
	const k, n, d = 8, 64, 1
	gold := field.NewGoldilocks()
	ring := poly.NewRing[uint64](gold)
	code, err := New(ring, k, n)
	if err != nil {
		b.Fatal(err)
	}
	const l = 16 // wide vectors: 16 component codewords to decode
	values := make([][]uint64, k)
	for i := range values {
		values[i] = make([]uint64, l)
		for j := range values[i] {
			values[i][j] = uint64(i*l + j + 1)
		}
	}
	results, err := code.EncodeVectors(values)
	if err != nil {
		b.Fatal(err)
	}
	faults := SyncMaxFaults(n, k, d)
	suspects := make([]int, faults)
	for i := range suspects {
		suspects[i] = (i*3 + 2) % n
		results[suspects[i]][i%l]++
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			primed, err := code.NewPrimed(nil, suspects, d, faults)
			if err != nil || primed == nil {
				b.Fatalf("priming failed: %v", err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok, err := primed.Decode(results, workers); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
