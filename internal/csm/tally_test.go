package csm

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/lcc"
)

// tallyOf folds replies into a tally the way clientPhase does.
func tallyOf(replies ...[]uint64) []replyCount[uint64] {
	var tally []replyCount[uint64]
	for _, r := range replies {
		tally = countReply(tally, r)
	}
	return tally
}

// repeat returns n references to v.
func repeat(v []uint64, n int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestAcceptReplyDeterministicOnCollision is the regression test for the
// client-tally determinism bug: the old implementation iterated a Go map
// and broke at the first key reaching the b+1 threshold, so with two
// qualifying values the accepted output depended on map iteration order.
// acceptReply must pick the highest count, ties broken by the smallest
// canonical wire-byte key — the same answer whatever order the replies
// were heard in.
func TestAcceptReplyDeterministicOnCollision(t *testing.T) {
	va, vb, vc := []uint64{1}, []uint64{2}, []uint64{3}
	// 256's little-endian wire key (00 01 ...) sorts before 1's (01 00 ...).
	vWire := []uint64{256}

	// Two values over threshold, distinct counts: highest count wins in
	// every hearing order.
	heard := slices.Concat(repeat(va, 3), repeat(vb, 5), repeat(vc, 1))
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 64; i++ {
		rng.Shuffle(len(heard), func(a, b int) { heard[a], heard[b] = heard[b], heard[a] })
		if got := acceptReply(gold, tallyOf(heard...), 3); got == nil || got[0] != vb[0] {
			t.Fatalf("order %d: accepted %v, want highest-count value %v", i, got, vb)
		}
	}
	// Exact tie at the threshold: the smallest wire-byte key wins.
	for _, tc := range []struct{ first, second, want []uint64 }{
		{vb, va, va}, {va, vb, va}, {va, vWire, vWire}, {vWire, va, vWire},
	} {
		tally := []replyCount[uint64]{{tc.first, 4}, {tc.second, 4}}
		if got := acceptReply(gold, tally, 3); got == nil || got[0] != tc.want[0] {
			t.Fatalf("tie %v/%v broken to %v, want smallest-key value %v", tc.first, tc.second, got, tc.want)
		}
	}
	// Nothing reaches the threshold: no accepted output.
	if got := acceptReply(gold, tallyOf(va, va, vb, vb), 3); got != nil {
		t.Fatalf("below-threshold tally accepted %v", got)
	}
	// Empty tally (every node silent).
	if got := acceptReply(gold, nil, 1); got != nil {
		t.Fatalf("empty tally accepted %v", got)
	}
}

// mapTally is the client tally clientPhase ran before it kept a list of
// distinct replies, kept here as the reference: counts and values keyed by
// each reply's canonical wire bytes, then the highest count of at least
// threshold, ties to the smallest key.
func mapTally(f field.Field[uint64], replies [][]uint64, threshold int) []uint64 {
	counts := make(map[string]int)
	values := make(map[string][]uint64)
	for _, reply := range replies {
		var key []byte
		for _, e := range reply {
			key = binary.LittleEndian.AppendUint64(key, f.Uint64(e))
		}
		counts[string(key)]++
		values[string(key)] = reply
	}
	best, bestKey := 0, ""
	for key, cnt := range counts {
		if cnt < threshold || cnt < best {
			continue
		}
		if cnt > best || key < bestKey {
			best, bestKey = cnt, key
		}
	}
	if best == 0 {
		return nil
	}
	return values[bestKey]
}

// TestAcceptReplyMatchesMapTally checks the list tally against mapTally
// on seeded random reply multisets: values drawn from a small pool (equal
// values in distinct slices among them, as duplicate garbage from several
// liars would be), shuffled, with two values forced to tie at or above the
// threshold in a third of the cases.
func TestAcceptReplyMatchesMapTally(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 5))
	ties := 0
	for trial := 0; trial < 4000; trial++ {
		threshold := 1 + rng.IntN(4)
		length := 1 + rng.IntN(3)
		pool := make([][]uint64, 1+rng.IntN(5))
		for i := range pool {
			pool[i] = make([]uint64, length)
			for j := range pool[i] {
				pool[i][j] = uint64(rng.IntN(3)) << (8 * rng.IntN(2))
			}
		}
		var replies [][]uint64
		for range rng.IntN(12) {
			replies = append(replies, slices.Clone(pool[rng.IntN(len(pool))]))
		}
		if len(pool) > 1 && rng.IntN(3) == 0 {
			n := threshold + rng.IntN(2)
			replies = slices.Concat(replies, repeat(pool[0], n), repeat(pool[1], n))
			ties++
		}
		rng.Shuffle(len(replies), func(a, b int) { replies[a], replies[b] = replies[b], replies[a] })
		got := acceptReply(gold, tallyOf(replies...), threshold)
		want := mapTally(gold, replies, threshold)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("trial %d: threshold %d, replies %v: accepted %v, map tally %v", trial, threshold, replies, got, want)
		}
	}
	if ties == 0 {
		t.Fatal("no forced tie drawn")
	}
}

// TestClientPhaseCollidingReplies drives the collision through clientPhase
// itself with crafted decode snapshots: 4 honest nodes split 2-2 between
// two decoded outputs (possible only through adversarial inputs, which is
// exactly when determinism matters most) plus a threshold of 2. The
// accepted value must be the smaller wire key on every run, and the round
// must be flagged incorrect when it disagrees with the oracle.
func TestClientPhaseCollidingReplies(t *testing.T) {
	cfg := baseConfig(2, 9, 1)
	c := newCluster(t, cfg)
	low := []uint64{7}   // smaller wire key
	high := []uint64{9}  // larger wire key
	state := []uint64{0} // audit state, matching the fresh oracle
	mk := func(out []uint64) *nodeDecode[uint64] {
		result := append(append([]uint64(nil), state...), out...) // [next state | output]
		return &nodeDecode[uint64]{DecodeResult: lcc.DecodeResult[uint64]{Outputs: [][]uint64{result, result}}, stateLen: len(state)}
	}
	decodes := make([]*nodeDecode[uint64], cfg.N)
	decodes[0], decodes[1] = mk(high), mk(high)
	decodes[2], decodes[3] = mk(low), mk(low)
	// The oracle's rows after its advance: [state | output].
	copy(c.oracle[0], []uint64{0, 7})
	copy(c.oracle[1], []uint64{0, 9})
	for i := 0; i < 64; i++ {
		res := &RoundResult[uint64]{}
		c.clientPhase(&stepOutcome[uint64]{decodes: decodes, res: res}) // no liar
		for k := 0; k < cfg.K; k++ {
			if res.Outputs[k] == nil || res.Outputs[k][0] != low[0] {
				t.Fatalf("iteration %d machine %d: accepted %v, want deterministic %v", i, k, res.Outputs[k], low)
			}
		}
		// Machine 0's oracle output matches the accepted value; machine
		// 1's does not — the audit must flag the round.
		if res.Correct {
			t.Fatalf("iteration %d: colliding round audited as correct", i)
		}
	}
}
