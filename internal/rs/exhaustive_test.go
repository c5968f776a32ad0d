package rs

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// balls is the exact decoding truth of the dimension-dim Reed-Solomon
// code over points in a field of q elements represented as 0..q-1 (GF(2^m)):
// owner[w] is the message whose codeword lies within the unique-decoding
// radius (n-dim)/2 of word w, or -1 when no codeword does. Words and
// messages are numbered by their base-q digits, position 0 least
// significant. Codewords are evaluated by Horner's rule and each ball is
// walked outward from its codeword, so the table shares no step with the
// decoders it judges.
type balls struct {
	ring      *poly.Ring[uint64]
	q, n      int
	messages  []poly.Poly[uint64]
	codewords [][]uint64
	owner     []int
}

func newBalls(t *testing.T, ring *poly.Ring[uint64], points []uint64, dim int) *balls {
	t.Helper()
	q, n := int(ring.Field().(*field.GF2m).Order()), len(points)
	b := &balls{ring: ring, q: q, n: n, owner: make([]int, pow(q, n))}
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
		// Every word within radius of cw: each position keeps cw's value
		// or, while the budget lasts, takes one of the q-1 others.
		var walk func(pos, budget, w, place int)
		walk = func(pos, budget, w, place int) {
			if pos == n {
				if b.owner[w] >= 0 {
					t.Fatalf("n=%d dim=%d: word %d lies in the balls of messages %d and %d", n, dim, w, b.owner[w], m)
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

// word returns word w's coordinates.
func (b *balls) word(w int) []uint64 { return digits(w, b.q, b.n) }

// check compares one decode of word w with the truth: a word in a ball
// decodes to its owner's message and codeword, with ErrorsAt exactly the
// differing positions (mapped through indices when not nil); any other
// word is refused with ErrTooManyErrors. It returns "" on agreement.
func (b *balls) check(w int, indices []int, res *DecodeResult[uint64], err error) string {
	m := b.owner[w]
	if m < 0 {
		if !errors.Is(err, ErrTooManyErrors) {
			return fmt.Sprintf("word %v lies in no ball: got %+v, %v; want ErrTooManyErrors", b.word(w), res, err)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("word %v lies in message %v's ball: %v", b.word(w), b.messages[m], err)
	}
	word, cw := b.word(w), b.codewords[m]
	var diff []int
	for i := range word {
		if word[i] != cw[i] {
			diff = append(diff, at(indices, i))
		}
	}
	if !b.ring.Equal(res.Message, b.messages[m]) || !slices.Equal(res.Corrected, cw) || !slices.Equal(res.ErrorsAt, diff) {
		return fmt.Sprintf("word %v: got message %v corrected %v errors %v; want %v, %v, %v",
			word, res.Message, res.Corrected, res.ErrorsAt, b.messages[m], cw, diff)
	}
	return ""
}

// TestDecodeExhaustive decodes every word of GF(2^3)^n for every n ≤ 5 and
// every dimension, and holds each outcome to ball ownership (balls): a
// word within the radius of a codeword decodes to it, any other word is
// refused. Decode runs on NewCode's dense tables and on the tree
// (newCode(…, false)); DecodeMany takes the dimension's words as one batch
// on GOMAXPROCS workers; DecodeSubset runs every word of every
// proper index subset of at least dim positions, against the subcode's own
// balls. This is the truth Gao's decoder is held to: over a small field it
// is cheap to state exactly, so no second decoder is needed as an oracle.
func TestDecodeExhaustive(t *testing.T) {
	f, err := field.NewGF2m(3)
	if err != nil {
		t.Fatal(err)
	}
	ring := poly.NewRing[uint64](f)
	points, err := f.Elements(5)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(points); n++ {
		for dim := 1; dim <= n; dim++ {
			truth := newBalls(t, ring, points[:n], dim)
			dense, err := NewCode(ring, points[:n], dim)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := newCode(ring, points[:n], dim, false)
			if err != nil {
				t.Fatal(err)
			}
			disagree := func(what, msg string) {
				t.Helper()
				t.Errorf("n=%d dim=%d %s: %s", n, dim, what, msg)
			}
			words := make([][]uint64, len(truth.owner))
			var owned [][]uint64
			firstRefused := -1
			for w := range words {
				words[w] = truth.word(w)
				if truth.owner[w] >= 0 {
					owned = append(owned, words[w])
				} else if firstRefused < 0 {
					firstRefused = w
				}
			}
			for _, c := range []struct {
				path string
				code *Code[uint64]
			}{{"dense", dense}, {"tree", tree}} {
				bad := 0
				for w, word := range words {
					res, err := c.code.Decode(word)
					if msg := truth.check(w, nil, res, err); msg != "" {
						if bad++; bad == 1 {
							disagree(c.path+" Decode", msg)
						}
					}
				}
				if bad > 1 {
					disagree(c.path+" Decode", fmt.Sprintf("%d disagreements in all", bad))
				}
			}

			// DecodeMany: the owned words decode as Decode does, and the
			// whole batch fails at its lowest unowned word.
			got, err := dense.DecodeMany(owned)
			if err != nil {
				disagree("DecodeMany", fmt.Sprintf("batch of owned words: %v", err))
			} else {
				bad, o := 0, 0
				for w := range words {
					if truth.owner[w] < 0 {
						continue
					}
					if truth.check(w, nil, got[o], nil) != "" {
						bad++
					}
					o++
				}
				if bad > 0 {
					disagree("DecodeMany", fmt.Sprintf("%d owned words decoded wrongly", bad))
				}
			}
			_, err = dense.DecodeMany(words)
			var werr *WordError
			switch {
			case firstRefused < 0 && err != nil:
				disagree("DecodeMany", fmt.Sprintf("every word is owned, got %v", err))
			case firstRefused >= 0 && (!errors.As(err, &werr) || werr.Word != firstRefused || !errors.Is(err, ErrTooManyErrors)):
				disagree("DecodeMany", fmt.Sprintf("got %v, want word %d refused", err, firstRefused))
			}

			// DecodeSubset over every proper subset of at least dim positions.
			for mask := 1; mask < 1<<n-1; mask++ {
				if bits.OnesCount(uint(mask)) < dim {
					continue
				}
				var indices []int
				var sub []uint64
				for i := range n {
					if mask>>i&1 == 1 {
						indices = append(indices, i)
						sub = append(sub, points[i])
					}
				}
				subTruth := newBalls(t, ring, sub, dim)
				bad := 0
				for w := range subTruth.owner {
					res, err := dense.DecodeSubset(indices, subTruth.word(w))
					if msg := subTruth.check(w, indices, res, err); msg != "" {
						if bad++; bad == 1 {
							disagree(fmt.Sprintf("DecodeSubset %v", indices), msg)
						}
					}
				}
				if bad > 1 {
					disagree(fmt.Sprintf("DecodeSubset %v", indices), fmt.Sprintf("%d disagreements in all", bad))
				}
			}
		}
	}
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

// at returns the index behind position i (indices nil: i itself).
func at(indices []int, i int) int {
	if indices == nil {
		return i
	}
	return indices[i]
}
