package transport

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"codedsm/internal/pool"
)

// sameMessages reports whether two delivered sequences are identical,
// payload bytes included.
func sameMessages(a, b []Message) bool {
	return slices.EqualFunc(a, b, func(x, y Message) bool {
		return x.From == y.From && x.To == y.To && x.Round == y.Round && x.Kind == y.Kind &&
			bytes.Equal(x.Payload, y.Payload)
	})
}

// TestNetworkConcurrentBroadcastDeterministic: on a synchronous network
// delivery does not depend on enqueue order, which is what lets N local
// links (NewLocalLinks) send from N goroutines. 64
// endpoints send from 8 goroutines in a shuffled order — two broadcasts
// each, the second coerced to the first on this no-equivocation network,
// plus a unicast from every fifth node — and every inbox must equal a
// sequential run's. The sequential run reads each inbox with Receive; the
// shuffled runs drain all 64 at once, one goroutine per node ranging over
// its Deliveries, as the cluster's collect phase does. Run it under
// -race -count=10.
func TestNetworkConcurrentBroadcastDeterministic(t *testing.T) {
	const n, goroutines, rounds = 64, 8, 3
	run := func(shuffle *rand.Rand) [n][]Message {
		net := newNet(t, Config{N: n, Mode: Sync, NoEquivocation: true, Seed: 61})
		var eps [n]*Endpoint
		for i := range eps {
			eps[i] = endpoint(t, net, NodeID(i))
		}
		var got [n][]Message
		for r := 0; r < rounds; r++ {
			send := func(id int) error {
				for _, b := range []byte{0xb0, 0xb1} {
					if err := eps[id].Broadcast("b", []byte{byte(r), byte(id), b}); err != nil {
						return err
					}
				}
				if id%5 == 0 {
					return eps[id].Send(NodeID((id+r+1)%n), "a", []byte{byte(r), byte(id)})
				}
				return nil
			}
			if shuffle == nil {
				for id := 0; id < n; id++ {
					if err := send(id); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				order := shuffle.Perm(n)
				errs := make([]error, goroutines)
				var wg sync.WaitGroup
				for g := range goroutines {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < n && errs[g] == nil; i += goroutines {
							errs[g] = send(order[i])
						}
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
			}
			net.Step()
			if shuffle == nil {
				for i, ep := range eps {
					got[i] = append(got[i], ep.Receive()...)
				}
				continue
			}
			var wg sync.WaitGroup
			for i, ep := range eps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for m := range ep.Deliveries() {
						got[i] = append(got[i], m)
					}
				}()
			}
			wg.Wait()
		}
		return got
	}
	want := run(nil)
	for seed := uint64(1); seed <= 4; seed++ {
		got := run(rand.New(rand.NewPCG(seed, 0x5f)))
		for i := range got {
			if !sameMessages(got[i], want[i]) {
				t.Fatalf("shuffle %d: node %d received %d messages unlike the sequential run's %d", seed, i, len(got[i]), len(want[i]))
			}
		}
	}
}

// BenchmarkNetworkTick is one simulated result exchange at csmload's
// sim-honest shape: 64 nodes each broadcast a result-sized payload (the
// 48-byte result header and a Bank result's two field elements) in node
// order, as the cluster's transmit phase does, then one Step, and every
// node ranges over its Deliveries fanned out over GOMAXPROCS goroutines,
// as the cluster's collect phase does.
func BenchmarkNetworkTick(b *testing.B) {
	const n = 64
	net, err := New(Config{N: n, Mode: Sync, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	eps := make([]*Endpoint, n)
	for i := range eps {
		if eps[i], err = net.Endpoint(NodeID(i)); err != nil {
			b.Fatal(err)
		}
	}
	payload := bytes.Repeat([]byte{0xc5}, 48+2*8)
	b.ReportAllocs()
	for b.Loop() {
		for _, ep := range eps {
			if err := ep.Broadcast("csm-result", payload); err != nil {
				b.Fatal(err)
			}
		}
		net.Step()
		delivered := make([]int, n)
		_ = pool.Run(n, func(i int) error {
			for range eps[i].Deliveries() {
				delivered[i]++
			}
			return nil
		})
		if slices.Contains(delivered, 0) {
			b.Fatal("a node received nothing")
		}
	}
}

// TestSharedRecipientListsNeverWritten: however a round's envelopes share
// their recipient lists, dropping a down recipient at Step must not write
// a list another envelope or a later round reads. Nodes 0, 1 and 3
// broadcast every round and node 4 sends node 2 a unicast; node 2 goes
// down between round 1's broadcasts and its Step and comes back before
// round 2's sends, and node 4 is down at enqueue in round 3. On the
// synchronous network node 2 loses exactly round 1's copies and hears
// every sender again from round 2 on; on a pre-GST network each copy is
// filed alone under its own delay. Every node drains its deliveries on
// its own goroutine. The per-config digest of who received what, when,
// and the final Stats are pinned at the values of the network that
// still built a recipient list per broadcast. Run it under
// -race -count=10.
func TestSharedRecipientListsNeverWritten(t *testing.T) {
	const n, sendRounds, drainRounds = 5, 8, 6
	for _, g := range []struct {
		name   string
		cfg    Config
		digest string
		stats  Stats
	}{
		{"sync", Config{N: n, Mode: Sync, Seed: 23},
			"d3201dff69318b6a65ade7c9f6c732a5a6afbd83b91dd0cb19d67ea2119c1a2a",
			Stats{MessagesDelivered: 96, BytesDelivered: 192, DroppedDown: 8, Transmissions: 32}},
		{"pre-GST", Config{N: n, Mode: PartialSync, GST: 6, Seed: 23},
			"7fa3cd7cd4ec6ef816d6e2b3b86f3d5e141398df6ab7675c945a402d3e3c13ee",
			Stats{MessagesDelivered: 92, BytesDelivered: 184, RandomDelays: 74, DroppedDown: 12, Transmissions: 32}},
	} {
		t.Run(g.name, func(t *testing.T) {
			net := newNet(t, g.cfg)
			eps := make([]*Endpoint, n)
			for i := range eps {
				eps[i] = endpoint(t, net, NodeID(i))
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			h := sha256.New()
			for r := 0; r < sendRounds+drainRounds; r++ {
				switch r {
				case 2:
					must(net.SetDown(2, false))
				case 3:
					must(net.SetDown(4, true))
				case 4:
					must(net.SetDown(4, false))
				}
				if r < sendRounds {
					for _, id := range []int{0, 1, 3} {
						must(eps[id].Broadcast("b", []byte{byte(r), byte(id)}))
					}
					must(eps[4].Send(2, "u", []byte{byte(r), 4}))
				}
				if r == 1 {
					must(net.SetDown(2, true))
				}
				net.Step()
				got := make([][]Message, n)
				var wg sync.WaitGroup
				for i, ep := range eps {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = slices.Collect(ep.Deliveries())
					}()
				}
				wg.Wait()
				for i, msgs := range got {
					hashContent(h, r*n+i, msgs)
				}
				if g.cfg.Mode != Sync {
					continue
				}
				// Round r's sends arrive at the Step that ends it.
				for id, msgs := range got {
					if want := syncInbox(r, id); r < sendRounds && len(msgs) != want {
						t.Errorf("round %d: node %d received %d messages, want %d", r, id, len(msgs), want)
					}
				}
			}
			digest, stats := hex.EncodeToString(h.Sum(nil)), net.Stats()
			if digest != g.digest {
				t.Errorf("delivery digest %s, want %s", digest, g.digest)
			}
			if stats != g.stats {
				t.Errorf("stats %+v, want %+v", stats, g.stats)
			}
		})
	}
}

// syncInbox is how many messages node id of TestSharedRecipientListsNeverWritten's
// synchronous run receives at the Step that ends send round r.
func syncInbox(r, id int) int {
	switch {
	case id == 2 && r == 1: // down at Step
		return 0
	case id == 2 && r == 3: // three broadcasts; node 4 is down
		return 3
	case id == 2: // three broadcasts and node 4's unicast
		return 4
	case id == 4 && r == 3: // down at enqueue
		return 0
	case id == 4:
		return 3
	default: // the other two broadcasters
		return 2
	}
}
