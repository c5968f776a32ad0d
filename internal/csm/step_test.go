package csm

import (
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
)

// TestStepCoreAbsorbMatchesReference runs one node's core through a long
// random sequence of steps — full layouts, erasure layouts down to the
// decode threshold, up to radius liars that move, persist or vanish, so
// the primed check is built, reused, refused and found ineligible — and
// after every step compares it with the straight-line reference
// DecodeOutputsSubset -> SplitResult -> EncodeVectors row: decoded
// outputs, next coded state and faulty set must be identical.
func TestStepCoreAbsorbMatchesReference(t *testing.T) {
	const n, k, b, self, steps = 10, 3, 2, 4, 300
	ring := poly.NewRing[uint64](gold)
	tr, err := sm.NewPolynomialRegister[uint64](gold, 2)
	if err != nil {
		t.Fatal(err)
	}
	code, err := lcc.New(ring, k, n)
	if err != nil {
		t.Fatal(err)
	}
	dim := code.ResultDim(tr.Degree())
	rng := rand.New(rand.NewPCG(22, 0x57e9))
	states := make([][]uint64, k)
	for m := range states {
		states[m] = field.RandVec[uint64](gold, rng, tr.StateLen())
	}
	coded, err := code.EncodeVectors(states)
	if err != nil {
		t.Fatal(err)
	}
	core := newStepCore(code, tr, ring.Bulk(), self, b)
	core.codedState = slices.Clone(coded[self])
	liars := []int{}
	for step := 0; step < steps; step++ {
		cmds := make([][]uint64, k)
		for m := range cmds {
			cmds[m] = field.RandVec[uint64](gold, rng, tr.CmdLen())
		}
		codedCmds, err := code.EncodeVectors(cmds)
		if err != nil {
			t.Fatal(err)
		}
		core.encodeCommands(flattenBatch([][][]uint64{cmds}, tr.CmdLen()))
		own, err := core.apply(0)
		if err != nil {
			t.Fatal(err)
		}
		// Layout: everyone, or a random subset no smaller than dim that
		// keeps this node's own result.
		present := make([]bool, n)
		rows := n
		if rng.IntN(3) > 0 {
			rows = dim + rng.IntN(n-dim+1)
		}
		for _, i := range rng.Perm(n)[:rows] {
			present[i] = true
		}
		if !present[self] {
			present[self] = true
			rows++
		}
		// Liars: mostly keep the last step's, sometimes redraw; never more
		// than the layout's radius, never this node.
		if rng.IntN(4) == 0 {
			liars = liars[:0]
			for _, i := range rng.Perm(n)[:rng.IntN(b+1)] {
				if i != self {
					liars = append(liars, i)
				}
			}
		}
		radius := (rows - dim) / 2
		core.resetStep()
		var indices []int
		var results [][]uint64
		lied := 0
		for i := 0; i < n; i++ {
			if !present[i] {
				continue
			}
			res, err := tr.ApplyResult(coded[i], codedCmds[i])
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(liars, i) && lied < radius {
				res = field.RandVec[uint64](gold, rng, len(res))
				lied++
			}
			if i == self && !slices.Equal(res, own) {
				t.Fatalf("step %d: core.apply = %v, reference %v", step, own, res)
			}
			core.accept(i, res)
			indices = append(indices, i)
			results = append(results, res)
		}
		got, err := core.absorb()
		if err != nil {
			t.Fatalf("step %d (rows %v liars %v): %v", step, indices, liars, err)
		}
		ref, err := code.DecodeOutputsSubset(indices, results, tr.Degree())
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < k; m++ {
			next, out, err := tr.SplitResult(ref.Outputs[m])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.outputs[m], out) || !slices.Equal(got.nextStates[m], next) {
				t.Fatalf("step %d machine %d: core decoded (%v, %v), reference (%v, %v)", step, m, got.nextStates[m], got.outputs[m], next, out)
			}
			states[m] = next
		}
		if !slices.Equal(got.faulty, ref.FaultyNodes) {
			t.Fatalf("step %d: core accuses %v, reference %v", step, got.faulty, ref.FaultyNodes)
		}
		if coded, err = code.EncodeVectors(states); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(core.codedState, coded[self]) {
			t.Fatalf("step %d: core's next coded state %v, reference row %v", step, core.codedState, coded[self])
		}
	}
}
