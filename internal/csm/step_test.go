package csm

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
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
	got := new(nodeDecode[uint64]) // one buffer, reused by every step
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
		if err := core.absorb(got); err != nil {
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
			if !slices.Equal(got.output(m), out) || !slices.Equal(got.nextState(m), next) {
				t.Fatalf("step %d machine %d: core decoded (%v, %v), reference (%v, %v)", step, m, got.nextState(m), got.output(m), next, out)
			}
			states[m] = next
		}
		if !slices.Equal(got.FaultyNodes, ref.FaultyNodes) {
			t.Fatalf("step %d: core accuses %v, reference %v", step, got.FaultyNodes, ref.FaultyNodes)
		}
		if coded, err = code.EncodeVectors(states); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(core.codedState, coded[self]) {
			t.Fatalf("step %d: core's next coded state %v, reference row %v", step, core.codedState, coded[self])
		}
	}
}

// TestIngestKeepsAcceptedRow drives ingest with one message at a time
// after sender 3's result for (round 5, tag) has been accepted. Whatever
// ingest refuses — a malformed payload, another round or tag, the wrong
// length, a non-canonical element, another kind, a sender outside
// 0..N-1 — must leave the accepted row and receivedCount untouched; a
// well-formed repeat overwrites the row without counting twice.
func TestIngestKeepsAcceptedRow(t *testing.T) {
	const n, k, from, round = 10, 3, 3, 5
	tag := [32]byte{7: 1}
	ring := poly.NewRing[uint64](gold)
	tr, err := sm.NewPolynomialRegister[uint64](gold, 2)
	if err != nil {
		t.Fatal(err)
	}
	code, err := lcc.New(ring, k, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 0x1a9e))
	first := field.RandVec[uint64](gold, rng, tr.ResultLen())
	second := field.RandVec[uint64](gold, rng, tr.ResultLen())
	good := appendResult[uint64](nil, gold, round, tag, first)
	nonCanonical := appendResult[uint64](nil, gold, round, tag, second)
	binary.LittleEndian.PutUint64(nonCanonical[resultHdrLen+8:], field.GoldilocksModulus+1)
	msg := func(from transport.NodeID, kind string, payload []byte) transport.Message {
		return transport.Message{From: from, Kind: kind, Payload: payload}
	}
	cases := []struct {
		name string
		m    transport.Message
		want []uint64 // sender 3's row after the message
	}{
		{"truncated", msg(from, resultKind, good[:len(good)-1]), first},
		{"header only", msg(from, resultKind, good[:resultHdrLen]), first},
		{"other round", msg(from, resultKind, appendResult[uint64](nil, gold, round+1, tag, second)), first},
		{"other tag", msg(from, resultKind, appendResult[uint64](nil, gold, round, [32]byte{}, second)), first},
		{"long", msg(from, resultKind, appendResult[uint64](nil, gold, round, tag, append(slices.Clone(second), 1))), first},
		{"short", msg(from, resultKind, appendResult[uint64](nil, gold, round, tag, second[1:])), first},
		{"non-canonical", msg(from, resultKind, nonCanonical), first},
		{"other kind", msg(from, "csm-other", appendResult[uint64](nil, gold, round, tag, second)), first},
		{"sender N", msg(n, resultKind, appendResult[uint64](nil, gold, round, tag, second)), first},
		{"sender -1", msg(-1, resultKind, appendResult[uint64](nil, gold, round, tag, second)), first},
		{"repeat", msg(from, resultKind, appendResult[uint64](nil, gold, round, tag, second)), second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			core := newStepCore(code, tr, ring.Bulk(), 0, 2)
			core.resetStep()
			core.ingest(slices.Values([]transport.Message{msg(from, resultKind, good)}), round, tag)
			if core.receivedCount != 1 || !slices.Equal(core.received(from), first) {
				t.Fatalf("well-formed result not accepted: count %d row %v", core.receivedCount, core.received(from))
			}
			core.ingest(slices.Values([]transport.Message{tc.m}), round, tag)
			if core.receivedCount != 1 {
				t.Errorf("receivedCount %d after the message, want 1", core.receivedCount)
			}
			if !slices.Equal(core.received(from), tc.want) {
				t.Errorf("row %v after the message, want %v", core.received(from), tc.want)
			}
			for i := range core.n {
				if row := core.received(i); i != from && row != nil {
					t.Errorf("sender %d has row %v; only sender %d sent a result", i, row, from)
				}
			}
		})
	}
}
