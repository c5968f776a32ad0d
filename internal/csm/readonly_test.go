package csm

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"testing"

	"codedsm/internal/transport"
)

// TestReceivedRowsNeverWritten pins the read-only rule of the collection:
// a node's decode reads the rows it received in place and writes none of
// them. It drives simulated steps the way runExecutionStep does, one node
// at a time, and hashes every row any node can read (receivedStorage)
// before and after each decode: an honest N=64 round, 21 WrongResult nodes
// (whose first round refuses the verified-subset check and runs the
// DecodeOutputsSubset fallback), equivocating senders, and a partially
// synchronous network whose pre-GST delays land results in later ticks.
func TestReceivedRowsNeverWritten(t *testing.T) {
	byzantine := func(cfg Config[uint64], count int, b Behavior) Config[uint64] {
		cfg.Byzantine = map[int]Behavior{}
		for i := 0; len(cfg.Byzantine) < count; i++ {
			cfg.Byzantine[(i*5+2)%cfg.N] = b
		}
		return cfg
	}
	psync := baseConfig(2, 16, 2)
	psync.Mode, psync.GST = transport.PartialSync, 1_000
	psync.Byzantine = map[int]Behavior{3: Equivocate, 11: WrongResult}
	equivocate := baseConfig(3, 16, 4)
	equivocate.Byzantine = map[int]Behavior{1: Equivocate, 6: Equivocate, 11: WrongResult, 13: Silent}
	cases := []struct {
		name          string
		cfg           Config[uint64]
		wantFallbacks bool
	}{
		{"honest-N64", baseConfig(22, 64, 21), false},
		{"wrong-result-21", byzantine(baseConfig(22, 64, 21), 21, WrongResult), true},
		{"equivocate", equivocate, true},
		{"psync-preGST", psync, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.cfg)
			decodes := 0
			for _, cmds := range RandomWorkload[uint64](gold, 3, tc.cfg.K, c.tr.CmdLen(), 7) {
				if err := c.encodeBatchCommands([][][]uint64{cmds}); err != nil {
					t.Fatal(err)
				}
				decodes += decodeStepReadOnly(t, c)
				c.round++
			}
			fallbacks := 0
			for _, n := range c.nodes {
				fallbacks += n.fallbacks
			}
			if decodes == 0 || tc.wantFallbacks != (fallbacks > 0) {
				t.Fatalf("%d decodes checked, %d of them full-decoder fallbacks", decodes, fallbacks)
			}
			t.Logf("%d decodes checked, %d full-decoder fallbacks", decodes, fallbacks)
		})
	}
}

// decodeStepReadOnly runs one execution step of c as runExecutionStep
// does, but node by node on the calling goroutine, and fails when a
// node's decode changes a received row. It returns the decodes it ran.
func decodeStepReadOnly(t *testing.T, c *Cluster[uint64]) int {
	t.Helper()
	if err := c.broadcastResults(0); err != nil {
		t.Fatal(err)
	}
	o := c.takeOutcome()
	defer c.releaseOutcome(o)
	need, decodes := c.decodeNeed(), 0
	for ticks := 1; ; ticks++ {
		c.net.Step()
		tab := c.parseResults()
		done := true
		for _, n := range c.nodes {
			if n.behavior != Honest || n.decoded != nil {
				continue
			}
			n.collect(tab)
			before := hashRows(receivedStorage(c))
			// runExecutionStep's deadline is one tick: every tick may decode.
			ok, err := n.tryDecode(true, need, &o.bufs[n.id])
			if err != nil {
				t.Fatal(err)
			}
			if after := hashRows(receivedStorage(c)); after != before {
				t.Fatalf("round %d tick %d: node %d's decode wrote a received row", c.round, ticks, n.id)
			}
			if ok {
				decodes++
			}
			done = done && ok
		}
		if done {
			return decodes
		}
		if ticks >= c.maxTicks {
			t.Fatalf("round %d stuck after %d ticks", c.round, ticks)
		}
	}
}

// receivedStorage is every row a node's decode can read: the cluster's
// shared table, each node's own receive rows and the parsed rows.
func receivedStorage(c *Cluster[uint64]) [][]uint64 {
	out := slices.Clone(c.shared)
	for _, n := range c.nodes {
		out = append(out, n.recvBuf)
	}
	for _, r := range c.tick.results {
		out = append(out, r.row)
	}
	return out
}

// hashRows is a SHA-256 digest of the rows' elements, in order.
func hashRows(rows [][]uint64) [sha256.Size]byte {
	h := sha256.New()
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, e := range row {
			buf = binary.LittleEndian.AppendUint64(buf, e)
		}
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
