package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"codedsm/internal/csm"
	"codedsm/internal/sm"
)

// BenchmarkShardedThroughput measures the routed serving path end to
// end: concurrent submitters push individual commands through
// Router.Submit, each shard's admission scheduler coalesces its slice of
// the traffic into rounds and consensus batches, and S coded clusters
// execute concurrently. Each op is one submitted command, so aggregate
// commands/sec = 1 / (ns_op * 1e-9).
//
// The S axis is the scaling claim the router exists for: one cluster's
// machine capacity is capped by Table 2 (K ≤ (N-2b-1)/d + 1), so
// serving more machines means more clusters. Here every shard is an
// identical N=12 cluster serving ~6 machines and the global machine
// count grows with S (M = 6·S); commands spread uniformly. A flat ns_op
// from S=1 to S=4 is 4x the aggregate machines served at the same
// per-command cost.
func BenchmarkShardedThroughput(b *testing.B) {
	const (
		perShard = 6  // machines per shard (ring-balanced on average)
		nodes    = 12 // per shard
		faults   = 1  // per shard
		seed     = 11
	)
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		machines := perShard * shards
		ring, err := NewRing(shards, DefaultVirtualNodes, seed)
		if err != nil {
			b.Fatal(err)
		}
		maxLoad := 0
		for _, l := range ring.Loads(machines) {
			if l > maxLoad {
				maxLoad = l
			}
		}
		for _, submitters := range []int{1, 4, 8} {
			name := fmt.Sprintf("S=%d/N=%d/M=%d/submitters=%d", shards, nodes, machines, submitters)
			b.Run(name, func(b *testing.B) {
				// Tight slots (no rebalance headroom): idle-slot padding
				// would bill skewed rings for machines that do not exist.
				rt, err := Open(gold, sm.NewBank[uint64],
					WithShards(shards), WithMachines(machines), WithSeed(seed),
					WithSlots(maxLoad),
					WithClusterOptions(
						csm.WithNodes(nodes), csm.WithFaults(faults),
						csm.WithByzantineNode(3, csm.WrongResult),
						csm.WithBatching(4)))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for s := 0; s < submitters; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for i := s; i < b.N; i += submitters {
							machine := i % machines
							if _, err := rt.Submit(ctx, machine, []uint64{uint64(i)}); err != nil {
								b.Error(err)
								return
							}
						}
					}(s)
				}
				wg.Wait()
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
			})
		}
	}
}
