package csm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"codedsm/internal/field"
)

// garbageBatch is the proposal a BadLeader substitutes (csm.go).
var garbageBatch = []byte("garbage-batch")

// batchHeader builds a batch payload header by hand, for the reject cases
// encodeBatchMsg cannot produce.
func batchHeader(round uint64, count, cmdLen uint32) []byte {
	buf := append([]byte(nil), batchMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, round)
	buf = binary.LittleEndian.AppendUint32(buf, count)
	return binary.LittleEndian.AppendUint32(buf, cmdLen)
}

func TestBatchMsgCodec(t *testing.T) {
	for _, shape := range []struct{ b, k, cmdLen int }{
		{1, 2, 1}, {8, 2, 1}, {1, 22, 1}, {8, 22, 3},
	} {
		t.Run(fmt.Sprintf("roundtrip/B=%d/K=%d", shape.b, shape.k), func(t *testing.T) {
			batch := RandomWorkload[uint64](gold, shape.b, shape.k, shape.cmdLen, 11)
			batch[0][0][0] = field.GoldilocksModulus - 1 // the largest canonical element
			payload := encodeBatchMsg[uint64](gold, 41, batch)
			if want := batchHdrLen + 8*shape.b*shape.k*shape.cmdLen; len(payload) != want {
				t.Fatalf("payload is %d bytes, want %d", len(payload), want)
			}
			for _, steps := range []int{shape.b, -1} { // pinned, and inferred like the follower
				got, round, ok := parseBatchMsg[uint64](gold, payload, steps, shape.k, shape.cmdLen)
				if !ok || round != 41 || !reflect.DeepEqual(got, batch) {
					t.Fatalf("steps=%d: ok=%v round=%d, commands differ: %v", steps, ok, round, !reflect.DeepEqual(got, batch))
				}
			}
			// The decoded commands are views of one backing array (hence
			// three allocations whatever the batch size), capped so an
			// append to one cannot reach into the next.
			got, _, _ := parseBatchMsg[uint64](gold, payload, -1, shape.k, shape.cmdLen)
			if cap(got[0][0]) != shape.cmdLen || cap(got[0]) != shape.k {
				t.Errorf("decoded views are not capped: command cap %d, step cap %d", cap(got[0][0]), cap(got[0]))
			}
			if allocs := testing.AllocsPerRun(20, func() {
				parseBatchMsg[uint64](gold, payload, -1, shape.k, shape.cmdLen)
			}); allocs != 3 {
				t.Errorf("parse made %.0f allocations, want 3 (elements, vectors, steps)", allocs)
			}
		})
	}

	// Rejects, against a K=2, cmdLen=1 node. Every one of them must be
	// refused before anything is allocated.
	const k, cmdLen = 2, 1
	valid := encodeBatchMsg[uint64](gold, 5, RandomWorkload[uint64](gold, 2, k, cmdLen, 3))
	with := func(edit func(p []byte) []byte) []byte { return edit(bytes.Clone(valid)) }
	rejects := []struct {
		name  string
		data  []byte
		steps int
	}{
		{"empty", nil, -1},
		{"short header", valid[:batchHdrLen-1], -1},
		{"wrong magic", with(func(p []byte) []byte { p[0] ^= 0xff; return p }), -1},
		{"garbage-batch", garbageBatch, -1},
		{"count zero", batchHeader(5, 0, cmdLen), -1},
		{"count zero, steps pinned to zero", batchHeader(5, 0, cmdLen), 0},
		{"count not a multiple of K", append(batchHeader(5, 3, cmdLen), make([]byte, 24)...), -1},
		{"pinned steps mismatch", valid, 1},
		{"cmdLen mismatch", append(batchHeader(5, 2, 2), make([]byte, 32)...), -1},
		{"body one byte short", valid[:len(valid)-1], -1},
		{"body one byte long", append(bytes.Clone(valid), 0), -1},
		{"body one element short", valid[:len(valid)-8], -1},
		{"huge count, empty body", batchHeader(5, math.MaxUint32-1, cmdLen), -1},
		{"round above MaxInt", with(func(p []byte) []byte { p[11] = 0x80; return p }), -1},
	}
	for _, tc := range rejects {
		t.Run("reject/"+tc.name, func(t *testing.T) {
			if cmds, round, ok := parseBatchMsg[uint64](gold, tc.data, tc.steps, k, cmdLen); ok || cmds != nil || round != 0 {
				t.Fatalf("accepted: ok=%v round=%d cmds=%v", ok, round, cmds)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				parseBatchMsg[uint64](gold, tc.data, tc.steps, k, cmdLen)
			}); allocs != 0 {
				t.Errorf("rejected only after %.0f allocations", allocs)
			}
		})
	}

	// count*cmdLen = 2^34 does not fit 32 bits: the length check must see
	// the full product, not a wrapped one that an 8-byte body could match.
	t.Run("reject/count*cmdLen overflows 32 bits", func(t *testing.T) {
		data := append(batchHeader(5, 1<<17, 1<<17), make([]byte, 8)...)
		if _, _, ok := parseBatchMsg[uint64](gold, data, -1, 2, 1<<17); ok {
			t.Fatal("accepted")
		}
	})
	// A local K or cmdLen no transition can have is refused, not divided by.
	t.Run("reject/degenerate shape", func(t *testing.T) {
		if _, _, ok := parseBatchMsg[uint64](gold, valid, -1, 0, cmdLen); ok {
			t.Error("K=0 accepted")
		}
		if _, _, ok := parseBatchMsg[uint64](gold, batchHeader(5, 2, 0), -1, k, 0); ok {
			t.Error("cmdLen=0 accepted")
		}
	})
	// An element at or above the modulus has a smaller canonical twin; the
	// wire carries canonical elements only.
	t.Run("reject/non-canonical element", func(t *testing.T) {
		data := with(func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[batchHdrLen:], field.GoldilocksModulus)
			return p
		})
		if _, _, ok := parseBatchMsg[uint64](gold, data, -1, k, cmdLen); ok {
			t.Fatal("accepted")
		}
	})
}

// FuzzParseBatchMsg throws arbitrary bytes at the batch parser, both the
// way a follower reads the sequencer's broadcast (step count inferred) and
// the way a consensus node reads a decision (step count pinned). It must
// never panic; a refusal returns nothing; and what it accepts has exactly
// the elements the input carries — so no allocation outgrows the input —
// in the local shape, and re-encodes to the same bytes.
func FuzzParseBatchMsg(f *testing.F) {
	valid := encodeBatchMsg[uint64](gold, 5, RandomWorkload[uint64](gold, 2, 2, 1, 3))
	f.Add(valid, int8(-1), uint8(2), uint8(1))
	f.Add(valid, int8(2), uint8(2), uint8(1))
	f.Add(valid, int8(1), uint8(4), uint8(1))
	f.Add(valid[:len(valid)-1], int8(-1), uint8(2), uint8(1))
	f.Add(garbageBatch, int8(1), uint8(2), uint8(1))
	f.Add(batchHeader(5, math.MaxUint32, 1), int8(-1), uint8(1), uint8(1))
	f.Add(batchHeader(math.MaxUint64, 0, 0), int8(0), uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, steps int8, k, cmdLen uint8) {
		cmds, round, ok := parseBatchMsg[uint64](gold, data, int(steps), int(k), int(cmdLen))
		if !ok {
			if cmds != nil || round != 0 {
				t.Fatalf("refused, yet returned round %d and %d steps", round, len(cmds))
			}
			return
		}
		if steps >= 0 && len(cmds) != int(steps) {
			t.Fatalf("accepted %d steps, pinned %d", len(cmds), steps)
		}
		elems := 0
		for _, step := range cmds {
			if len(step) != int(k) {
				t.Fatalf("accepted a step of %d vectors for K=%d", len(step), k)
			}
			for _, cmd := range step {
				if len(cmd) != int(cmdLen) {
					t.Fatalf("accepted a %d-element command, cmdLen %d", len(cmd), cmdLen)
				}
				elems += len(cmd)
			}
		}
		if len(cmds) == 0 || batchHdrLen+8*elems != len(data) {
			t.Fatalf("accepted %d steps holding %d elements from %d bytes", len(cmds), elems, len(data))
		}
		if again := encodeBatchMsg[uint64](gold, round, cmds); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", again, data)
		}
	})
}

// BenchmarkBatchCodec measures the batch payload codec on a one-round
// batch of the bank machine (cmdLen 1): K=2 is what csmload's tcp-*
// clusters propose every round, K=22 the N=64 cluster's batch.
func BenchmarkBatchCodec(b *testing.B) {
	for _, k := range []int{2, 22} {
		batch := RandomWorkload[uint64](gold, 1, k, 1, 9)
		payload := encodeBatchMsg[uint64](gold, 7, batch)
		b.Run(fmt.Sprintf("K=%d/encode", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				encodeBatchMsg[uint64](gold, 7, batch)
			}
		})
		b.Run(fmt.Sprintf("K=%d/parse", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, ok := parseBatchMsg[uint64](gold, payload, 1, k, 1); !ok {
					b.Fatal("parse refused a valid payload")
				}
			}
		})
	}
}

// TestClusterSkipsBatchDecidedForAnotherRound: a decision that is a
// well-formed batch, but one proposed for another round than the cluster is
// about to execute, is treated like a garbage decision — the simulated
// cluster's side of NodeProcess.commitBatch's desync check.
func TestClusterSkipsBatchDecidedForAnotherRound(t *testing.T) {
	cfg := baseConfig(2, 9, 2)
	cfg.Consensus = PBFT
	c := newCluster(t, cfg)
	runRounds(t, c, 2) // a non-zero round, so a zeroed header cannot pass
	batch := RandomWorkload[uint64](gold, 1, c.cfg.K, c.tr.CmdLen(), 5)

	if got := c.agreedCommands(encodeBatchMsg[uint64](gold, c.round, batch), 1); !reflect.DeepEqual(got, batch) {
		t.Fatalf("the batch for round %d parsed to %v, want %v", c.round, got, batch)
	}
	for _, round := range []int{c.round - 1, c.round + 1} {
		if got := c.agreedCommands(encodeBatchMsg[uint64](gold, round, batch), 1); got != nil {
			t.Errorf("at round %d the cluster would execute the batch proposed for round %d", c.round, round)
		}
	}
	if got := c.agreedCommands(garbageBatch, 1); got != nil {
		t.Errorf("garbage decision parsed to %v", got)
	}
}
