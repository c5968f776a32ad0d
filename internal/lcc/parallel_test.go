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
// concurrent decoders, and then the cache of subset checks under
// concurrent primings: 16 goroutines prime two suspect layouts on one
// counting Code and decode twice on each (the second decode forms the
// randomized rule on the check's narrowed prediction). The field is
// charged exactly what 16 primings and decodes charge on fresh Codes, and
// every decode matches the full decoder's (run with -race).
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

	want, err := code.DecodeOutputs(results, d)
	if err != nil {
		t.Fatal(err)
	}
	suspects := [][]int{{1}, {1, 4}}
	countingAt := func() (*Code[uint64], *field.Counting[uint64]) {
		cf := field.NewCounting[uint64](field.NewGoldilocks())
		c, err := NewWithPoints(poly.NewRing[uint64](cf), code.Omegas(), code.Alphas())
		if err != nil {
			t.Fatal(err)
		}
		return c, cf
	}
	// primeAndDecode primes suspects on c and decodes the round twice.
	primeAndDecode := func(c *Code[uint64], g int) error {
		p, err := c.NewPrimed(nil, suspects[g%2], d, 1)
		if err != nil || p == nil {
			return fmt.Errorf("NewPrimed: %v, %v", p, err)
		}
		p.Randomize(uint64(g), 1)
		for range 2 {
			res, ok, err := p.Decode(results, 0)
			if err != nil || !ok {
				return fmt.Errorf("primed decode: ok=%v err=%v", ok, err)
			}
			if !reflect.DeepEqual(res, want) {
				return fmt.Errorf("primed decode %v, full decode %v", res, want)
			}
		}
		return nil
	}
	var each [2]field.OpCounts
	for g := range each {
		c, cf := countingAt()
		before := cf.Counts()
		if err := primeAndDecode(c, g); err != nil {
			t.Fatal(err)
		}
		each[g] = cf.Counts().Sub(before)
	}
	shared, cf := countingAt()
	before := cf.Counts()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = primeAndDecode(shared, g)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	pair := each[0].Add(each[1])
	total := field.OpCounts{Adds: 8 * pair.Adds, Muls: 8 * pair.Muls, Invs: 8 * pair.Invs}
	if got := cf.Counts().Sub(before); got != total {
		t.Errorf("16 concurrent primings and decodes charged %+v, 16 on fresh Codes %+v", got, total)
	}
}
