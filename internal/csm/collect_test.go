package csm

import (
	"slices"
	"testing"

	"codedsm/internal/transport"
)

// TestClusterCollectMatchesPerReceiverIngest runs simulated rounds step by
// step and checks, after every tick, that each pending node's receive
// rows and receivedCount under the cluster's one-parse collection
// (parseResults, then node.collect, inside collectAndDecode) equal those
// of a shadow core that ingests the node's own deliveries, parsing every
// copy itself. The networks carry equivocating, lying, silent and crashed
// senders, pre-GST delays chosen by a DelayFn (so stale results arrive in
// later steps), no-equivocation coercion, a genuine result re-addressed to
// its own sender by Inject, a forgery Inject refuses, and a malformed
// result and a result under another kind that the accept rule refuses.
func TestClusterCollectMatchesPerReceiverIngest(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config[uint64]
		net  func(Config[uint64]) transport.Config
	}{
		{
			name: "sync-faults",
			cfg: func() Config[uint64] {
				cfg := baseConfig(3, 16, 4)
				cfg.Byzantine = map[int]Behavior{1: Equivocate, 5: WrongResult, 9: Silent, 12: Crashed}
				return cfg
			},
			net: func(cfg Config[uint64]) transport.Config {
				return transport.Config{N: cfg.N, Mode: transport.Sync, Seed: cfg.Seed}
			},
		},
		{
			name: "psync-delayfn",
			cfg: func() Config[uint64] {
				cfg := baseConfig(2, 16, 2)
				cfg.Mode, cfg.GST = transport.PartialSync, 1_000
				cfg.Byzantine = map[int]Behavior{3: Equivocate, 11: WrongResult}
				return cfg
			},
			net: func(cfg Config[uint64]) transport.Config {
				return transport.Config{N: cfg.N, Mode: cfg.Mode, GST: cfg.GST, MaxPreGSTDelay: 3, Seed: cfg.Seed,
					DelayFn: func(from, to transport.NodeID, round int) int { return 1 + (3*int(from)+5*int(to)+round)%4 }}
			},
		},
		{
			name: "noequivocation",
			cfg: func() Config[uint64] {
				cfg := baseConfig(3, 16, 4)
				cfg.Byzantine = map[int]Behavior{1: Equivocate, 5: WrongResult, 9: Crashed}
				return cfg
			},
			net: func(cfg Config[uint64]) transport.Config {
				return transport.Config{N: cfg.N, Mode: transport.Sync, NoEquivocation: true, Seed: cfg.Seed}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			c := newCluster(t, cfg)
			// Run the cluster on a network of the case's own configuration.
			net, err := transport.New(tc.net(cfg))
			if err != nil {
				t.Fatal(err)
			}
			c.net = net
			for _, n := range c.nodes {
				if n.ep, err = net.Endpoint(transport.NodeID(n.id)); err != nil {
					t.Fatal(err)
				}
				if n.behavior == Crashed {
					if err := net.SetDown(transport.NodeID(n.id), true); err != nil {
						t.Fatal(err)
					}
				}
			}
			ticks := 0
			for _, cmds := range RandomWorkload[uint64](gold, 4, cfg.K, c.tr.CmdLen(), 7) {
				if err := c.encodeBatchCommands([][][]uint64{cmds}); err != nil {
					t.Fatal(err)
				}
				ticks += collectStepMatchingIngest(t, c)
				c.round++
			}
			t.Logf("%d ticks compared", ticks)
		})
	}
}

// collectStepMatchingIngest runs one execution step of c the way
// runExecutionStep does, with extra traffic from node 0 on its first
// tick, and compares every pending node with its shadow after each tick.
// It returns the step's ticks.
func collectStepMatchingIngest(t *testing.T, c *Cluster[uint64]) int {
	t.Helper()
	if err := c.broadcastResults(0); err != nil {
		t.Fatal(err)
	}
	// Node 0 is honest in every case: its own row holds the result it
	// broadcast, which the network carried.
	forgeries := c.net.Stats().ForgeriesDropped
	genuine := appendResult(nil, gold, c.round, clusterTag, c.nodes[0].recvRow(0))
	c.net.Inject(transport.Message{From: 0, To: 0, Round: c.net.Round(), Kind: resultKind, Payload: genuine})
	forged := appendResult(nil, gold, c.round, clusterTag, make([]uint64, c.tr.ResultLen()))
	c.net.Inject(transport.Message{From: 2, To: 4, Round: c.net.Round(), Kind: resultKind, Payload: forged})
	for _, m := range []struct {
		kind    string
		payload []byte
	}{{resultKind, genuine[:len(genuine)-1]}, {"csm-other", genuine}} {
		if err := c.nodes[0].ep.Broadcast(m.kind, m.payload); err != nil {
			t.Fatal(err)
		}
	}
	shadows := map[int]*stepCore[uint64]{}
	need := c.decodeNeed()
	o := c.takeOutcome()
	defer c.releaseOutcome(o)
	for ticks := 1; ; ticks++ {
		c.net.Step()
		var pending []*node[uint64]
		for _, n := range c.nodes {
			if n.behavior != Honest || n.decoded != nil {
				continue
			}
			pending = append(pending, n)
			sh := shadows[n.id]
			if sh == nil {
				// The shadow starts from what the node held before the
				// step's first tick: its own result.
				core := newStepCore(c.code, c.tr, c.bulk, n.id, c.cfg.MaxFaults)
				sh = &core
				sh.resetStep()
				for from := range n.n {
					if row := n.received(from); row != nil {
						sh.accept(from, row)
					}
				}
				shadows[n.id] = sh
			}
			sh.ingest(n.ep.Deliveries(), c.round, clusterTag)
		}
		// runExecutionStep's deadline is one tick: every tick may decode.
		allDecoded, err := c.collectAndDecode(o, pending, true, need)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range pending {
			sh := shadows[n.id]
			if n.receivedCount != sh.receivedCount {
				t.Fatalf("round %d tick %d node %d: received %d results, per-receiver ingest %d",
					c.round, ticks, n.id, n.receivedCount, sh.receivedCount)
			}
			for from := range n.n {
				if !slices.Equal(n.received(from), sh.received(from)) || (n.received(from) == nil) != (sh.received(from) == nil) {
					t.Fatalf("round %d tick %d node %d: row from %d is %v, per-receiver ingest %v",
						c.round, ticks, n.id, from, n.received(from), sh.received(from))
				}
			}
		}
		if allDecoded {
			if got := c.net.Stats().ForgeriesDropped - forgeries; got != 1 {
				t.Fatalf("round %d: %d injections refused, want the forgery alone", c.round, got)
			}
			return ticks
		}
		if ticks >= c.maxTicks {
			t.Fatalf("round %d stuck after %d ticks", c.round, ticks)
		}
	}
}

// TestBroadcastTickCollectMatchesGeneral checks node.collect's shortcut for
// a tick of broadcasts to every other node, each equal to its sender's
// shared row (one copy of the tick's sender bitmap), against its general
// walk over the tick's envelopes: for every pending node the received
// bitmap, the count and the own flags must come out the same, with
// honest, lying and silent senders.
func TestBroadcastTickCollectMatchesGeneral(t *testing.T) {
	for _, byz := range []map[int]Behavior{nil, {2: WrongResult, 7: Silent, 11: WrongResult}} {
		cfg := baseConfig(3, 16, 4)
		cfg.Byzantine = byz
		c := newCluster(t, cfg)
		for r, cmds := range RandomWorkload[uint64](gold, 3, cfg.K, c.tr.CmdLen(), 7) {
			if err := c.encodeBatchCommands([][][]uint64{cmds}); err != nil {
				t.Fatal(err)
			}
			if err := c.broadcastResults(0); err != nil {
				t.Fatal(err)
			}
			c.net.Step()
			tick := c.parseResults()
			if !tick.broadcast {
				t.Fatalf("round %d: a tick of broadcasts to every node is not taken as one", r)
			}
			for _, n := range c.nodes {
				if n.behavior != Honest {
					continue
				}
				got, own, count := slices.Clone(n.got), slices.Clone(n.own), n.receivedCount
				n.collect(tick)
				fastGot, fastOwn, fastCount := slices.Clone(n.got), slices.Clone(n.own), n.receivedCount
				copy(n.got, got)
				copy(n.own, own)
				n.receivedCount = count
				tick.broadcast = false
				n.collect(tick)
				tick.broadcast = true
				if !slices.Equal(fastGot, n.got) || !slices.Equal(fastOwn, n.own) || fastCount != n.receivedCount {
					t.Fatalf("round %d node %d: bitmap copy took %v (%d, own %v), the envelope walk %v (%d, own %v)",
						r, n.id, fastGot, fastCount, fastOwn, n.got, n.receivedCount, n.own)
				}
			}
			o := c.takeOutcome()
			for _, n := range c.nodes {
				if n.behavior == Honest {
					if _, err := n.tryDecode(true, c.decodeNeed(), &o.bufs[n.id]); err != nil {
						t.Fatal(err)
					}
				}
			}
			c.releaseOutcome(o)
			c.round++
		}
	}
}
