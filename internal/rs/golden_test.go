package rs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"codedsm/internal/poly"
)

// goldenDecodeDigest is the SHA-256 of every decode outcome
// TestDecodeGolden produces, as outcome renders it: the message, the
// error positions and the corrected word of each success, the error text
// of each failure.
const goldenDecodeDigest = "786b363906706968482d1b2f1edea43c1b47fe5d4b36f37ef9785562f4ecde11"

// TestDecodeGolden pins Decode's outcome over seeded words at every code
// length the engines use and both field families: at each n the word
// carries no error, exactly MaxErrors errors, or one past the radius
// (where the decoder may fail or land on another codeword — whichever it
// does is pinned). Every outcome must also equal DecodeSubset's over all
// indices, which decodes on a Subcode: however Decode interpolates and
// re-encodes, it must not change a single coefficient, position or error.
func TestDecodeGolden(t *testing.T) {
	h := sha256.New()
	rings := []*poly.Ring[uint64]{goldRing(), newGF2mRingRS(t)}
	for _, ring := range rings {
		f := ring.Field()
		rng := rand.New(rand.NewPCG(38, 1))
		for _, n := range []int{4, 7, 16, 24, 64, 128} {
			c := newTestCode(t, ring, n, n/3+1)
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			for _, e := range []int{0, c.MaxErrors(), c.MaxErrors() + 1} {
				for trial := 0; trial < 3; trial++ {
					word, err := c.Encode(randMsg(ring, rng, c.Dim()))
					if err != nil {
						t.Fatal(err)
					}
					corrupt(f, rng, word, e)
					name := fmt.Sprintf("%s n=%d k=%d e=%d trial %d", f.Name(), n, c.Dim(), e, trial)
					res, err := c.Decode(word)
					sub, subErr := c.DecodeSubset(all, word)
					if got, want := outcome(res, err), outcome(sub, subErr); got != want {
						t.Fatalf("%s: Decode %s, DecodeSubset(all) %s", name, got, want)
					}
					fmt.Fprintf(h, "%s|%s;", name, outcome(res, err))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDecodeDigest {
		t.Errorf("decode outcomes digest %s, pinned %s", got, goldenDecodeDigest)
	}
}

// outcome renders a decode's result or error for comparison.
func outcome(res *DecodeResult[uint64], err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("message %v errors at %v corrected %v", []uint64(res.Message), res.ErrorsAt, res.Corrected)
}
