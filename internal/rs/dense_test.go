package rs

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// TestDenseCrossoverByCount is denseMaxLen's justification, checked: the
// counted operations of one interpolation through all n points and one
// evaluation of a length-n polynomial at them, on the subproduct tree
// (interpolation weights already cached) and on dense tables, over
// counting Goldilocks. Up to denseMaxLen dense charges no more than the
// tree for either; at twice that the tree's interpolation is cheaper.
func TestDenseCrossoverByCount(t *testing.T) {
	type cost struct{ tree, dense uint64 }
	for _, tc := range []struct {
		n      int
		interp cost
	}{
		{n: 16, interp: cost{688, 512}},
		{n: 32, interp: cost{2_496, 2_048}},
		{n: 64, interp: cost{10_522, 8_192}},
		{n: 96, interp: cost{22_750, 18_432}},
		{n: 128, interp: cost{33_074, 32_768}},
		{n: 256, interp: cost{92_684, 131_072}},
	} {
		counting := field.NewCounting[uint64](field.NewGoldilocks())
		ring := poly.NewRing[uint64](counting)
		pts, err := counting.Elements(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newCode(ring, pts, tc.n, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.tree.Weights(); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(tc.n), 2))
		word := field.RandVec[uint64](counting, rng, tc.n)
		ops := func(f func() error) uint64 {
			before := counting.Counts().Total()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			return counting.Counts().Total() - before
		}
		var p poly.Poly[uint64]
		interp := cost{
			tree:  ops(func() (err error) { p, err = c.tree.Interpolate(word); return err }),
			dense: ops(func() (err error) { _, err = c.interpolate(word); return err }),
		}
		eval := cost{
			tree:  ops(func() (err error) { _, err = c.tree.EvalMany(p); return err }),
			dense: ops(func() (err error) { _, err = c.evaluate(p); return err }),
		}
		t.Logf("n=%d: interpolation tree %d dense %d; evaluation tree %d dense %d", tc.n, interp.tree, interp.dense, eval.tree, eval.dense)
		if interp != tc.interp {
			t.Errorf("n=%d: interpolation charges tree %d dense %d, want %d %d", tc.n, interp.tree, interp.dense, tc.interp.tree, tc.interp.dense)
		}
		if eval.dense > eval.tree {
			t.Errorf("n=%d: dense evaluation charges %d, the tree %d", tc.n, eval.dense, eval.tree)
		}
		if dense := interp.dense <= interp.tree; dense != (tc.n <= denseMaxLen) {
			t.Errorf("n=%d: dense interpolation cheaper-or-equal = %v, but denseMaxLen is %d", tc.n, dense, denseMaxLen)
		}
	}
}

// FuzzGaoDecode decodes arbitrary words at n = 16 and 64 on the dense path
// (Decode) and on the tree (DecodeSubset over every index): the outcomes
// must be identical, and neither may report more than MaxErrors errors.
// The input's first 8 bytes seed a codeword; every following 9-byte chunk
// overwrites the coordinate its first byte names (mod n) with its other
// 8 bytes (mod p), so a few chunks give a word near a codeword and many
// give an arbitrary one.
func FuzzGaoDecode(f *testing.F) {
	f.Add(binary.LittleEndian.AppendUint64(nil, 1))
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 2), 3, 1, 0, 0, 0, 0, 0, 0, 0))
	ring := goldRing()
	var codes []*Code[uint64]
	for _, n := range []int{16, 64} {
		pts, err := ring.Field().Elements(n)
		if err != nil {
			f.Fatal(err)
		}
		c, err := NewCode(ring, pts, n/3+1)
		if err != nil {
			f.Fatal(err)
		}
		codes = append(codes, c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		seed := binary.LittleEndian.Uint64(data)
		for _, c := range codes {
			n := c.Length()
			word, err := c.Encode(randMsg(ring, rand.New(rand.NewPCG(seed, 0)), c.Dim()))
			if err != nil {
				t.Fatal(err)
			}
			for chunk := data[8:]; len(chunk) >= 9; chunk = chunk[9:] {
				word[int(chunk[0])%n] = binary.LittleEndian.Uint64(chunk[1:]) % field.GoldilocksModulus
			}
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			res, err := c.Decode(word)
			sub, subErr := c.DecodeSubset(all, word)
			if got, want := outcome(res, err), outcome(sub, subErr); got != want {
				t.Fatalf("n=%d: Decode %s, DecodeSubset(all) %s", n, got, want)
			}
			if err == nil && len(res.ErrorsAt) > c.MaxErrors() {
				t.Fatalf("n=%d: %d errors reported, radius %d", n, len(res.ErrorsAt), c.MaxErrors())
			}
		}
	})
}
