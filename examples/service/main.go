// Service: the serving-oriented API. Instead of pre-assembling a batch
// workload for Cluster.Run, concurrent tellers submit individual commands
// to a long-lived bank cluster through Client.Submit, each getting a
// Future for its command's decoded outcome. The client's scheduler
// coalesces pending submissions into rounds, groups rounds into consensus
// batches, and drives the coded execution engine — under real Byzantine
// faults and Dolev-Strong consensus. Deterministic admission admits a
// round only once every account has a command pending, so however the
// tellers interleave, the rounds and every figure printed are the same on
// every run. The field-operation count is not printed: which teller's
// deposit fills a round varies from run to run, and the decoders' count
// depends on the values they decode. A bounded per-account queue applies
// backpressure: a teller that runs too far ahead blocks in Submit until
// the cluster catches up.
//
//	go run ./examples/service
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"codedsm"
)

const (
	accounts  = 4  // K: one state machine per bank account
	nodes     = 16 // N
	faults    = 3  // b
	tellers   = 3  // concurrent submitters per account
	deposits  = 5  // submissions per teller
	queueCap  = 4  // per-account backpressure bound
	batchSize = 2  // rounds per consensus instance
)

func main() {
	gold := codedsm.NewGoldilocks()
	cluster, err := codedsm.Open(gold, codedsm.NewBank[uint64],
		codedsm.WithNodes(nodes),
		codedsm.WithMachines(accounts),
		codedsm.WithFaults(faults),
		codedsm.WithConsensus(codedsm.DolevStrong),
		codedsm.WithByzantineNode(2, codedsm.WrongResult),
		codedsm.WithByzantineNode(7, codedsm.SilentNode),
		codedsm.WithBatching(batchSize),
		codedsm.WithInitialStates([][]uint64{{1_000}, {2_000}, {3_000}, {4_000}}),
		codedsm.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}

	client, err := cluster.Open(codedsm.WithDeterministicAdmission(), codedsm.WithSubmitQueueDepth(queueCap))
	if err != nil {
		log.Fatal(err)
	}

	// A consumer streams every admitted future as it resolves — no result
	// slice is ever materialized. The stream starts at the Results call,
	// so obtain it before the tellers begin submitting.
	results := client.Results()
	var consumer sync.WaitGroup
	consumer.Add(1)
	resolved := 0
	go func() {
		defer consumer.Done()
		for fut := range results {
			if _, err := fut.Wait(context.Background()); err != nil {
				log.Fatalf("account %d command failed: %v", fut.Machine(), err)
			}
			resolved++
		}
	}()

	// Concurrent tellers: deposits to every account, amounts fixed per
	// (account, teller, round) so the final balances are deterministic no
	// matter how the scheduler interleaves the submissions into rounds.
	var wg sync.WaitGroup
	for acct := 0; acct < accounts; acct++ {
		for t := 0; t < tellers; t++ {
			wg.Add(1)
			go func(acct, t int) {
				defer wg.Done()
				for d := 0; d < deposits; d++ {
					amount := uint64(100*(acct+1) + 10*t + d)
					fut, err := client.Submit(context.Background(), acct, []uint64{amount})
					if err != nil {
						log.Fatalf("teller %d/%d: %v", acct, t, err)
					}
					_ = fut // the Results consumer tracks every outcome
				}
			}(acct, t)
		}
	}
	wg.Wait()
	if err := client.Close(); err != nil {
		log.Fatal(err)
	}
	consumer.Wait()

	submitted := accounts * tellers * deposits
	rounds := cluster.Round()
	fmt.Printf("%d tellers × %d deposits to %d accounts on %d nodes (2 Byzantine), Dolev-Strong consensus\n\n",
		accounts*tellers, deposits, accounts, nodes)
	fmt.Printf("submissions resolved: %d/%d\n", resolved, submitted)
	fmt.Printf("rounds executed:      %d (%d command slots, %d filled by the identity pad)\n",
		rounds, rounds*accounts, rounds*accounts-submitted)
	fmt.Println("\nfinal balances (initial + every teller's deposits, decoded under faults):")
	for acct, state := range cluster.OracleStates() {
		want := uint64(1_000 * (acct + 1))
		for t := 0; t < tellers; t++ {
			for d := 0; d < deposits; d++ {
				want += uint64(100*(acct+1) + 10*t + d)
			}
		}
		status := "OK"
		if state[0] != want {
			status = fmt.Sprintf("MISMATCH (want %d)", want)
		}
		fmt.Printf("  account %d: %6d  %s\n", acct, state[0], status)
	}
}
