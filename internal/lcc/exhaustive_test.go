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

// TestPrimedTwoComponentExhaustive runs the verified-subset check over
// every two-component word of GF(2^3) on New's systematic points, on
// layouts whose radius is 1, and holds it to ball ownership of both
// components at once. It enumerates what TestPrimedExhaustive's one
// component cannot: the rows caught in the first component and what the
// second makes of them. With K = 2, d = 1 (dim 2) on all four rows at
// N = 4, trusting rows 1 and 2, machine 0's output is read off the
// prediction of row 0, which the first component may catch; with K = 1,
// d = 1 (dim 1) on the three-row layouts at N ≤ 4 — the N=3 full layout
// and every three-row subset at N=4, with and without machine 0's node —
// each row is trusted in turn. Soundness: a certified word has both
// components in balls, its outputs are the owners' values at the omegas,
// and FaultyNodes is the union of the rows either component differs on.
// Completeness: a word with both components in balls and clean on the
// trusted rows is certified.
func TestPrimedTwoComponentExhaustive(t *testing.T) {
	f, err := field.NewGF2m(3)
	if err != nil {
		t.Fatal(err)
	}
	ring := poly.NewRing[uint64](f)
	const d = 1
	for _, tc := range []struct {
		n, k     int
		indices  []int
		suspects [][]int
	}{
		{4, 2, []int{0, 1, 2, 3}, [][]int{{0}}},
		{3, 1, []int{0, 1, 2}, [][]int{nil, {0}, {0, 1}}},
		{4, 1, []int{0, 1, 2}, [][]int{nil, {0}, {0, 1}}},
		{4, 1, []int{0, 1, 3}, [][]int{nil, {0}, {0, 1}}},
		{4, 1, []int{0, 2, 3}, [][]int{nil, {0}, {0, 2}}},
		{4, 1, []int{1, 2, 3}, [][]int{nil, {1}, {1, 2}}},
	} {
		code, err := New(ring, tc.k, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		dim := code.ResultDim(d)
		var points []uint64
		for _, i := range tc.indices {
			points = append(points, code.Alphas()[i])
		}
		truth := newBalls(t, ring, points, dim)
		indices := tc.indices
		if len(indices) == tc.n {
			indices = nil
		}
		for _, suspects := range tc.suspects {
			where := fmt.Sprintf("N=%d K=%d rows %v suspects %v", tc.n, tc.k, tc.indices, suspects)
			p, err := code.NewPrimed(indices, suspects, d, 0)
			if err != nil || p == nil {
				t.Fatalf("%s: NewPrimed: %v, %v", where, p, err)
			}
			trusted := make([]int, dim) // the first dim unsuspected rows
			for r := len(suspects); r < len(suspects)+dim; r++ {
				trusted[r-len(suspects)] = r
			}
			if msg := twoComponentsAgree(code, p, truth, tc.indices, trusted); msg != "" {
				t.Errorf("%s: %s", where, msg)
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

// twoComponentsAgree is primedAgrees over every word of two components,
// each held to its own ball: it returns the first disagreement with truth
// (and how many there were), or "".
func twoComponentsAgree(code *Code[uint64], p *Primed[uint64], truth *balls, indices, trusted []int) string {
	words, n := len(truth.owner), truth.n
	// Per one-component word: its values, the rows where it differs from
	// its owner's codeword (a bit mask), and the owner's values at the
	// omegas.
	values := make([][]uint64, words)
	errs := make([]uint, words)
	outs := make([][]uint64, words)
	for w, m := range truth.owner {
		values[w] = digits(w, truth.q, n)
		if m < 0 {
			continue
		}
		for r, v := range values[w] {
			if v != truth.codewords[m][r] {
				errs[w] |= 1 << r
			}
		}
		for _, omega := range code.Omegas() {
			outs[w] = append(outs[w], code.ring.Eval(truth.messages[m], omega))
		}
	}
	var trustedRows uint
	for _, r := range trusted {
		trustedRows |= 1 << r
	}
	results := make([][]uint64, n)
	for r := range results {
		results[r] = make([]uint64, 2)
	}
	dst := new(DecodeResult[uint64])
	first, bad := "", 0
	for w0, m0 := range truth.owner {
		for r, v := range values[w0] {
			results[r][0] = v
		}
		for w1, m1 := range truth.owner {
			for r, v := range values[w1] {
				results[r][1] = v
			}
			ok, err := p.DecodeInto(dst, results)
			inBalls := m0 >= 0 && m1 >= 0
			msg := ""
			switch {
			case err != nil:
				msg = err.Error()
			case ok && !inBalls:
				msg = fmt.Sprintf("certified %v %v, which lie in no balls", values[w0], values[w1])
			case ok:
				for i := range outs[w0] {
					if dst.Outputs[i][0] != outs[w0][i] || dst.Outputs[i][1] != outs[w1][i] {
						msg = fmt.Sprintf("words %v %v: output %d is %v, want %d %d", values[w0], values[w1], i, dst.Outputs[i], outs[w0][i], outs[w1][i])
					}
				}
				var faulty []int
				for r, node := range indices {
					if (errs[w0]|errs[w1])>>r&1 == 1 {
						faulty = append(faulty, node)
					}
				}
				if !slices.Equal(dst.FaultyNodes, faulty) {
					msg = fmt.Sprintf("words %v %v: faulty %v, want %v", values[w0], values[w1], dst.FaultyNodes, faulty)
				}
			case inBalls && (errs[w0]|errs[w1])&trustedRows == 0:
				msg = fmt.Sprintf("refused %v %v, which lie in balls and are clean on the trusted rows %v", values[w0], values[w1], trusted)
			}
			if msg != "" {
				if bad++; bad == 1 {
					first = msg
				}
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
