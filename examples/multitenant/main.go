// Multitenant: the sharded serving tier end to end. Tenants' accounts
// are spread over independent CSM clusters by the router's
// consistent-hash ring; skewed per-tenant traffic flows through
// Router.Submit from concurrent tellers; a cross-tenant settlement runs
// the two-phase cross-shard protocol; the hot tenant's busiest account
// is migrated to the least-loaded shard mid-run through the coded-state
// handoff; and the final per-account digests must be bit-identical to
// an unsharded single-cluster oracle fed the same commands.
//
//	go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"codedsm"
)

const (
	tenants     = 3
	accountsPer = 3
	accounts    = tenants * accountsPer // global machines
	shards      = 3
	nodes       = 10 // per shard
	faults      = 1  // per shard
	seed        = 2026
	tellers     = 3
	commands    = 180 // phase A + phase B submissions
)

// schedule returns the deterministic skewed workload as (account, delta)
// pairs: half of all traffic hits tenant 0 (the hot tenant), the rest
// spreads over tenants 1 and 2.
func schedule() (acct []int, delta []uint64) {
	for i := 0; i < commands; i++ {
		var m int
		if i%2 == 0 {
			m = (i / 2) % accountsPer // tenant 0: accounts 0..2
		} else {
			m = accountsPer + (i/2)%(accounts-accountsPer) // tenants 1..2
		}
		acct = append(acct, m)
		delta = append(delta, uint64(1+i))
	}
	return acct, delta
}

func main() {
	ctx := context.Background()
	gold := codedsm.NewGoldilocks()
	acct, delta := schedule()

	router, err := codedsm.OpenRouter(gold, codedsm.NewBank[uint64],
		codedsm.WithShards(shards),
		codedsm.WithShardMachines(accounts),
		codedsm.WithShardSeed(seed),
		codedsm.WithShardClusterOptions(
			codedsm.WithNodes(nodes),
			codedsm.WithFaults(faults),
			codedsm.WithByzantineNode(4, codedsm.WrongResult),
			codedsm.WithBatching(2)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("router: %d tenants x %d accounts over %d shards (N=%d, b=%d each, one Byzantine node per shard)\n",
		tenants, accountsPer, shards, nodes, faults)
	fmt.Printf("ring loads: %v\n", router.Loads())

	// Stream every routed outcome; the consumer just counts resolutions.
	// Results is called before any Submit so the stream sees all of them.
	stream := router.Results()
	resolved := 0
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for fut := range stream {
			if _, err := fut.Wait(ctx); err != nil {
				log.Fatalf("streamed future (machine %d, shard %d): %v", fut.Machine(), fut.Shard(), err)
			}
			resolved++
		}
	}()

	// Phase A: concurrent tellers push the first half of the skewed
	// schedule.
	half := commands / 2
	runPhase := func(lo, hi int) {
		var wg sync.WaitGroup
		for t := 0; t < tellers; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				for i := lo + t; i < hi; i += tellers {
					fut, err := router.Submit(ctx, acct[i], []uint64{delta[i]})
					if err != nil {
						log.Fatalf("submit %d: %v", i, err)
					}
					if _, err := fut.Wait(ctx); err != nil {
						log.Fatalf("await %d: %v", i, err)
					}
				}
			}(t)
		}
		wg.Wait()
	}
	runPhase(0, half)

	// The hot tenant's account 0 migrates to the least-loaded shard: the
	// router fences the two involved shards, decodes the account's state
	// from the source's coded shares, installs it on the target as a
	// rank-1 share update, and reopens — in-flight futures on both shards
	// resolve before the move.
	hot := 0
	from, err := router.ShardOf(hot)
	if err != nil {
		log.Fatal(err)
	}
	loads := router.Loads()
	target := -1
	for sh, l := range loads {
		if sh == from {
			continue
		}
		if target < 0 || l < loads[target] {
			target = sh
		}
	}
	if err := router.Rebalance(hot, target); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebalanced hot account %d: shard %d -> shard %d; loads now %v\n",
		hot, from, target, router.Loads())

	// Phase B: the rest of the schedule lands on the rebalanced layout.
	runPhase(half, commands)

	// A cross-tenant settlement: debit one account, credit another on a
	// different shard, atomically via the two-phase protocol (prepare
	// probes both shards, then commits; any failure is a typed abort with
	// nothing committed).
	src, dst := hot, -1
	srcShard, _ := router.ShardOf(src)
	for m := 0; m < accounts; m++ {
		if sh, _ := router.ShardOf(m); sh != srcShard {
			dst = m
			break
		}
	}
	if dst < 0 {
		log.Fatal("all accounts on one shard; cannot demonstrate a cross-shard settlement")
	}
	const amount = 250
	if _, err := router.SubmitCross(ctx, []codedsm.CrossOp[uint64]{
		{Machine: src, Cmd: []uint64{gold.Neg(gold.FromUint64(amount))}},
		{Machine: dst, Cmd: []uint64{amount}},
	}); err != nil {
		log.Fatalf("cross-shard settlement: %v", err)
	}
	fmt.Printf("cross-shard settlement: account %d -> account %d (%d), two-phase commit over shards %v\n",
		src, dst, amount, []int{srcShard, func() int { sh, _ := router.ShardOf(dst); return sh }()})

	if err := router.Close(); err != nil {
		log.Fatal(err)
	}
	consumer.Wait()
	fmt.Printf("streamed %d resolved futures; moves: %v\n", resolved, router.Moves())

	shardedDigests, err := router.StateDigests()
	if err != nil {
		log.Fatal(err)
	}

	// The unsharded oracle: one cluster holding all accounts, fed exactly
	// the same commands (the settlement included; prepare probes and pads
	// are identity commands and leave no trace).
	oracle, err := codedsm.Open(gold, codedsm.NewBank[uint64],
		codedsm.WithNodes(12), codedsm.WithMachines(accounts), codedsm.WithFaults(1),
		codedsm.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	client, err := oracle.Open()
	if err != nil {
		log.Fatal(err)
	}
	var futs []*codedsm.Future[uint64]
	submit := func(m int, d uint64) {
		fut, err := client.Submit(ctx, m, []uint64{d})
		if err != nil {
			log.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for i := range acct {
		submit(acct[i], delta[i])
	}
	submit(src, gold.Neg(gold.FromUint64(amount)))
	submit(dst, amount)
	for _, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			log.Fatal(err)
		}
	}
	if err := client.Close(); err != nil {
		log.Fatal(err)
	}

	mismatches := 0
	for m := 0; m < accounts; m++ {
		state, err := codedsm.DecodeMachineState(oracle, m)
		if err != nil {
			log.Fatal(err)
		}
		want := codedsm.DigestShardState(gold, state)
		if shardedDigests[m] != want {
			log.Printf("account %d: sharded digest %s != oracle %s (balance %v)", m, shardedDigests[m], want, state)
			mismatches++
		}
	}
	if mismatches > 0 {
		log.Fatalf("%d of %d account digests diverge from the unsharded oracle", mismatches, accounts)
	}
	fmt.Printf("all %d account digests bit-identical to the unsharded oracle run\n", accounts)
}
