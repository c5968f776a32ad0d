package lcc

import (
	randv2 "math/rand/v2"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// FuzzPrimedDecode holds the verified-subset check to the full decoder on
// small codes: K in 1..4, d in 1..2, N up to dim+8, over Goldilocks or
// GF(2^8), on New's systematic points (points even: node k < K sits at
// ω_k, so its row is machine k's output) or on disjoint ones (points odd:
// NewWithPoints with the omegas before the alphas, so every output is a
// prediction row of its own). layout's low N bits pick the received rows (zero: every row,
// as nil indices), suspects' low N bits the suspected nodes, spare the
// unsuspected rows NewPrimed asks for beyond dim; the word is a seeded
// codeword with lies at seeded rows. Whenever Primed.Decode certifies, its
// result must be exactly DecodeOutputsSubset's on the same rows, and that
// decoder must accept the word. A second Primed, randomized with secret,
// decodes the same word twice and must return exactly what the unseeded
// one returns both times (ok, outputs, FaultyNodes): its second decode
// runs the randomized accept rule on Goldilocks wherever the rule pays,
// and the exact check on GF(2^8), which is too small for it.
func FuzzPrimedDecode(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(0), uint8(0), uint64(0), uint64(0), uint64(1), uint8(0), uint64(1), uint8(0))
	f.Add(uint8(3), uint8(8), uint8(0), uint8(2), uint64(0), uint64(0b1001), uint64(2), uint8(2), uint64(2), uint8(1))
	f.Add(uint8(2), uint8(6), uint8(1), uint8(1), uint64(0x3fbf), uint64(0b100), uint64(3), uint8(3), uint64(3), uint8(0))
	f.Add(uint8(0x83), uint8(8), uint8(1), uint8(0), uint64(0xfff7), uint64(0x20), uint64(4), uint8(7), uint64(4), uint8(1))
	gf, err := field.NewGF2m(8)
	if err != nil {
		f.Fatal(err)
	}
	fields := []field.Field[uint64]{field.NewGoldilocks(), gf}
	f.Fuzz(func(t *testing.T, kb, nb, db, spare uint8, layout, suspectBits, seed uint64, lies uint8, secret uint64, points uint8) {
		fd := fields[kb>>7]
		k, d := 1+int(kb%4), 1+int(db%2)
		dim := d*(k-1) + 1
		n := max(k, dim+int(nb%9))
		code, err := New(poly.NewRing(fd), k, n)
		if points%2 == 1 {
			pts, perr := fd.Elements(k + n)
			if perr != nil {
				t.Fatal(perr)
			}
			code, err = NewWithPoints(poly.NewRing(fd), pts[:k], pts[k:k+n])
		}
		if err != nil {
			t.Fatal(err)
		}
		r := randv2.New(randv2.NewPCG(seed, 0))
		full := codeword(code, r, dim, 1+int(seed%3))
		var indices []int
		var results [][]uint64
		for i := 0; i < n; i++ {
			if layout == 0 || layout>>i&1 == 1 {
				indices = append(indices, i)
				results = append(results, full[i])
			}
		}
		if len(indices) == 0 {
			return
		}
		for range int(lies) % (len(results) + 1) {
			row := results[r.IntN(len(results))]
			lie(fd, r, row, r.IntN(len(row)))
		}
		var suspects []int
		for i := 0; i < n; i++ {
			if suspectBits>>i&1 == 1 {
				suspects = append(suspects, i)
			}
		}
		primedIdx := indices
		if layout == 0 {
			primedIdx = nil
		}
		primed, err := code.NewPrimed(primedIdx, suspects, d, int(spare%8))
		if err != nil {
			t.Fatal(err)
		}
		if primed == nil {
			return
		}
		got, ok, err := primed.Decode(results, 1)
		if err != nil {
			t.Fatal(err)
		}
		seeded, err := code.NewPrimed(primedIdx, suspects, d, int(spare%8))
		if err != nil {
			t.Fatal(err)
		}
		seeded.Randomize(secret, ^secret)
		for call := range 2 {
			sgot, sok, err := seeded.Decode(results, 1)
			if err != nil {
				t.Fatal(err)
			}
			if sok != ok || ok && !sameDecode(fd, sgot, got) {
				t.Fatalf("seeded decode %d: ok=%v %+v, unseeded ok=%v %+v", call, sok, sgot, ok, got)
			}
		}
		if seeded.rnd != nil && fd != fields[0] {
			t.Fatalf("randomized rule over %s", fd.Name())
		}
		if !ok {
			return
		}
		want, err := code.DecodeOutputsSubset(indices, results, d)
		if err != nil {
			t.Fatalf("certified a word the full decoder rejects (%v): %+v", err, got)
		}
		if !sameDecode(fd, got, want) {
			t.Fatalf("certified %+v, full decoder gives %+v", got, want)
		}
	})
}
