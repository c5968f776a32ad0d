package transport

import (
	"bytes"
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
		_ = pool.Run(0, n, func(i int) error {
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
