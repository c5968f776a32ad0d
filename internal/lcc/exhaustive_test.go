package lcc

import (
	"fmt"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// balls is the exact decoding truth of the dimension-dim Reed-Solomon
// code over points in GF(2^m), whose elements are 0..q-1: owner[w] is the
// message whose codeword lies within the unique-decoding radius
// (n-dim)/2 of word w, or -1 when no codeword does. Words and messages are
// numbered by their base-q digits, position 0 least significant.
// Codewords are evaluated by Horner's rule and each ball is walked outward
// from its codeword, so the table shares no step with the decoders.
type balls struct {
	q, n      int
	messages  []poly.Poly[uint64]
	codewords [][]uint64
	owner     []int
}

func newBalls(t *testing.T, ring *poly.Ring[uint64], points []uint64, dim int) *balls {
	t.Helper()
	q, n := int(ring.Field().(*field.GF2m).Order()), len(points)
	b := &balls{q: q, n: n, owner: make([]int, pow(q, n))}
	for w := range b.owner {
		b.owner[w] = -1
	}
	radius := (n - dim) / 2
	for m := range pow(q, dim) {
		msg := ring.Normalize(digits(m, q, dim))
		cw := make([]uint64, n)
		for i, x := range points {
			cw[i] = ring.Eval(msg, x)
		}
		b.messages = append(b.messages, msg)
		b.codewords = append(b.codewords, cw)
		var walk func(pos, budget, w, place int)
		walk = func(pos, budget, w, place int) {
			if pos == n {
				if b.owner[w] >= 0 {
					t.Fatalf("word %d lies in the balls of messages %d and %d", w, b.owner[w], m)
				}
				b.owner[w] = m
				return
			}
			for v := range q {
				if v == int(cw[pos]) {
					walk(pos+1, budget, w+v*place, place*q)
				} else if budget > 0 {
					walk(pos+1, budget-1, w+v*place, place*q)
				}
			}
		}
		walk(0, radius, 0, 1)
	}
	return b
}

// TestPrimedExhaustive runs the verified-subset check over every word of
// GF(2^3) on New's systematic points at every N ≤ 4, K ≤ 2 and d ∈ {1, 2},
// one component per row, for every received-row layout, suspect set and
// spare ∈ {0, 1}, and holds it to ball ownership over the received rows:
//   - eligibility: NewPrimed returns a check iff the unsuspected received
//     rows number at least dim + spare;
//   - soundness: a certified word lies in a ball, its outputs are the
//     owner's values at the omegas, and its FaultyNodes are exactly the
//     nodes whose rows differ from the owner's codeword;
//   - completeness: a word in a ball whose trusted rows (the first dim
//     unsuspected ones) carry its owner's values is certified.
func TestPrimedExhaustive(t *testing.T) {
	f, err := field.NewGF2m(3)
	if err != nil {
		t.Fatal(err)
	}
	ring := poly.NewRing[uint64](f)
	for n := 1; n <= 4; n++ {
		for k := 1; k <= min(2, n); k++ {
			code, err := New(ring, k, n)
			if err != nil {
				t.Fatal(err)
			}
			for d := 1; d <= 2; d++ {
				dim := code.ResultDim(d)
				for layout := 1; layout < 1<<n; layout++ {
					var indices []int
					var points []uint64
					for i := range n {
						if layout>>i&1 == 1 {
							indices = append(indices, i)
							points = append(points, code.Alphas()[i])
						}
					}
					var truth *balls
					if len(indices) >= dim {
						truth = newBalls(t, ring, points, dim)
					}
					for suspectSet := range 1 << n {
						var suspects, unsuspected []int // unsuspected: row positions
						for i := range n {
							if suspectSet>>i&1 == 1 {
								suspects = append(suspects, i)
							}
						}
						for r, node := range indices {
							if suspectSet>>node&1 == 0 {
								unsuspected = append(unsuspected, r)
							}
						}
						for spare := range 2 {
							where := fmt.Sprintf("N=%d K=%d d=%d rows %v suspects %v spare %d", n, k, d, indices, suspects, spare)
							p, err := code.NewPrimed(indices, suspects, d, spare)
							if err != nil {
								t.Fatalf("%s: %v", where, err)
							}
							if eligible := len(unsuspected) >= dim+spare; (p != nil) != eligible {
								t.Fatalf("%s: NewPrimed returned a check: %v, want %v", where, p != nil, eligible)
							}
							if p == nil {
								continue
							}
							if msg := primedAgrees(code, p, truth, indices, unsuspected[:dim]); msg != "" {
								t.Errorf("%s: %s", where, msg)
							}
						}
					}
				}
			}
		}
	}
}

// primedAgrees decodes every word of the layout with p and returns the
// first disagreement with truth (and how many there were), or "".
func primedAgrees(code *Code[uint64], p *Primed[uint64], truth *balls, indices, trusted []int) string {
	results := make([][]uint64, len(indices))
	for r := range results {
		results[r] = make([]uint64, 1)
	}
	first, bad := "", 0
	for w, m := range truth.owner {
		word := digits(w, truth.q, truth.n)
		for r, v := range word {
			results[r][0] = v
		}
		res, ok, err := p.Decode(results, 1)
		msg := ""
		switch {
		case err != nil:
			msg = err.Error()
		case ok && m < 0:
			msg = fmt.Sprintf("certified %v, which lies in no ball", word)
		case ok:
			cw := truth.codewords[m]
			var faulty []int
			for r := range word {
				if word[r] != cw[r] {
					faulty = append(faulty, indices[r])
				}
			}
			for i, omega := range code.Omegas() {
				if res.Outputs[i][0] != code.ring.Eval(truth.messages[m], omega) {
					msg = fmt.Sprintf("word %v: output %d is %d, want message %v at %d", word, i, res.Outputs[i][0], truth.messages[m], omega)
				}
			}
			if !slices.Equal(res.FaultyNodes, faulty) {
				msg = fmt.Sprintf("word %v: faulty %v, want %v", word, res.FaultyNodes, faulty)
			}
		case m >= 0 && !slices.ContainsFunc(trusted, func(r int) bool { return word[r] != truth.codewords[m][r] }):
			msg = fmt.Sprintf("refused %v, which lies in message %v's ball and is clean on the trusted rows %v", word, truth.messages[m], trusted)
		}
		if msg != "" {
			if bad++; bad == 1 {
				first = msg
			}
		}
	}
	if bad > 1 {
		return fmt.Sprintf("%s (%d disagreements in all)", first, bad)
	}
	return first
}

// digits returns x's n base-q digits, least significant first.
func digits(x, q, n int) []uint64 {
	d := make([]uint64, n)
	for i := range d {
		d[i] = uint64(x % q)
		x /= q
	}
	return d
}

func pow(q, n int) int {
	p := 1
	for range n {
		p *= q
	}
	return p
}
