package field

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// BenchmarkFieldKernels measures each bulk kernel on the native Goldilocks
// implementation against the generic per-element adapter over the same
// field — the devirtualization win in isolation. All kernels are
// allocation-free; b.ReportAllocs makes a regression there fail review.
func BenchmarkFieldKernels(b *testing.B) {
	gold := NewGoldilocks()
	impls := map[string]Bulk[uint64]{
		"native":  gold,
		"generic": AsBulk[uint64](scalarOnly[uint64]{gold}),
	}
	rng := rand.New(rand.NewPCG(31, 32))
	for _, n := range []int{16, 256} {
		x := RandVec[uint64](gold, rng, n)
		y := RandVec[uint64](gold, rng, n)
		for i := range x {
			for x[i] == 0 {
				x[i] = gold.Rand(rng)
			}
		}
		c := gold.Rand(rng)
		dst := make([]uint64, n)
		for _, impl := range []string{"native", "generic"} {
			k := impls[impl]
			kernels := []struct {
				name string
				fn   func()
			}{
				{"AddVec", func() { k.AddVec(dst, x, y) }},
				{"MulVec", func() { k.MulVec(dst, x, y) }},
				{"ScaleAccVec", func() { k.ScaleAccVec(dst, c, x) }},
				{"DotVec", func() { _ = k.DotVec(x, y) }},
				{"HornerVec", func() { k.HornerVec(dst, x, c) }},
				{"BatchInvInto", func() {
					if err := k.BatchInvInto(dst, x); err != nil {
						b.Fatal(err)
					}
				}},
			}
			for _, kn := range kernels {
				b.Run(fmt.Sprintf("%s/%s/n=%d", kn.name, impl, n), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						kn.fn()
					}
				})
			}
		}
	}
	// The verified-subset decode's shape: 21 terms of 64 elements per
	// component, as one LinCombAccVec beside the ScaleAccVec chain it
	// replaced.
	const terms, n = 21, 64
	cs := RandVec[uint64](gold, rng, terms)
	vecs := make([][]uint64, terms)
	for k := range vecs {
		vecs[k] = RandVec[uint64](gold, rng, n)
	}
	dst := make([]uint64, n)
	for _, impl := range []string{"native", "generic"} {
		k := impls[impl]
		b.Run(fmt.Sprintf("LinCombAccVec/%s/terms=%d/n=%d", impl, terms, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.LinCombAccVec(dst, cs, vecs)
			}
		})
		b.Run(fmt.Sprintf("ScaleAccVecChain/%s/terms=%d/n=%d", impl, terms, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for t, v := range vecs {
					k.ScaleAccVec(dst, cs[t], v)
				}
			}
		})
	}
	// The verified-subset check's prediction of one component: the
	// row-major 64 x 22 matrix (unchecked rows and outputs by trusted
	// rows) times the component's 22 trusted values, in one MatVec.
	const rows, cols = 64, 22
	m := RandVec[uint64](gold, rng, rows*cols)
	v := RandVec[uint64](gold, rng, cols)
	for _, impl := range []string{"native", "generic"} {
		k := impls[impl]
		b.Run(fmt.Sprintf("MatVec/%s/rows=%d/cols=%d", impl, rows, cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.MatVec(dst, m, v)
			}
		})
	}
}
