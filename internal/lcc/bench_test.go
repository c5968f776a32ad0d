package lcc

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// Micro-benchmarks for the encode/decode kernels in isolation, swept over
// K (machines) x L (vector length), so kernel-level regressions are visible
// without the noise of a whole cluster round. Compare two commits with
// benchstat (see README "Performance").

func benchCode(b *testing.B, k, n int) *Code[uint64] {
	b.Helper()
	ring := poly.NewRing[uint64](field.NewGoldilocks())
	code, err := New(ring, k, n)
	if err != nil {
		b.Fatal(err)
	}
	return code
}

func benchValues(k, l int) [][]uint64 {
	rng := rand.New(rand.NewPCG(21, 22))
	gold := field.NewGoldilocks()
	values := make([][]uint64, k)
	for i := range values {
		values[i] = field.RandVec[uint64](gold, rng, l)
	}
	return values
}

func BenchmarkLCCEncode(b *testing.B) {
	for _, kl := range []struct{ k, l int }{{4, 2}, {4, 32}, {22, 2}, {22, 32}, {64, 8}} {
		n := 3 * kl.k
		b.Run(fmt.Sprintf("K=%d/N=%d/L=%d", kl.k, n, kl.l), func(b *testing.B) {
			code := benchCode(b, kl.k, n)
			values := benchValues(kl.k, kl.l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.EncodeVectors(values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLCCDecode(b *testing.B) {
	const degree = 1
	for _, kl := range []struct{ k, l int }{{4, 2}, {4, 32}, {22, 2}, {22, 32}} {
		n := 3 * kl.k
		b.Run(fmt.Sprintf("K=%d/N=%d/L=%d", kl.k, n, kl.l), func(b *testing.B) {
			code := benchCode(b, kl.k, n)
			// Degree-1 results: the coded vectors themselves are a codeword
			// of dimension K; corrupt up to the radius.
			results, err := code.EncodeVectors(benchValues(kl.k, kl.l))
			if err != nil {
				b.Fatal(err)
			}
			for e := 0; e < (n-code.ResultDim(degree))/2; e++ {
				results[2*e][e%kl.l] += 7
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.DecodeOutputs(results, degree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLCCDecodeHonest is the steady-state decode of an execution
// step — every row clean, the primed verified-subset check certifies — at
// the csmload sim-honest shape, bare and over the counting decorator.
// BenchmarkLCCDecode times the full decoder that backs it.
func BenchmarkLCCDecodeHonest(b *testing.B) {
	const k, n, l, degree = 22, 64, 2, 1
	for _, counted := range []bool{false, true} {
		b.Run(fmt.Sprintf("K=%d/N=%d/L=%d/counted=%v", k, n, l, counted), func(b *testing.B) {
			var f field.Field[uint64] = field.NewGoldilocks()
			if counted {
				f = field.NewCounting(f)
			}
			code, err := New(poly.NewRing(f), k, n)
			if err != nil {
				b.Fatal(err)
			}
			results, err := code.EncodeVectors(benchValues(k, l))
			if err != nil {
				b.Fatal(err)
			}
			primed, err := code.NewPrimed(nil, nil, degree, SyncMaxFaults(n, k, degree))
			if err != nil || primed == nil {
				b.Fatalf("priming failed: %v", err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := primed.Decode(results, 1); err != nil || !ok {
					b.Fatalf("ok=%v err=%v", ok, err)
				}
			}
		})
	}
}
