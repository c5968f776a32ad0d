// Shardedledger: the paper's blockchain motivation (Sections 1 and 7). A
// sharded ledger assigns each shard (state machine) to a small group of
// nodes — exactly partial replication. A dynamic adversary who sees the
// assignment captures one group with a handful of corruptions. CSM runs the
// same shards on the same nodes and survives Θ(N) corruptions.
//
//	go run ./examples/shardedledger
package main

import (
	"fmt"
	"log"

	"codedsm"
)

const (
	shards = 4  // K
	nodes  = 16 // N, so each shard group has q = 4 nodes
)

func main() {
	gold := codedsm.NewGoldilocks()

	// --- Partial replication under a concentrated (dynamic) attack ---
	attack, err := codedsm.ConcentratedAttack(nodes, shards, 1) // capture shard 1
	if err != nil {
		log.Fatal(err)
	}
	partial, err := codedsm.OpenPartialReplication(gold, codedsm.NewBank[uint64],
		codedsm.WithReplNodes(nodes), codedsm.WithReplMachines(shards),
		codedsm.WithReplByzantine(attack), codedsm.WithReplSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	cmds := [][]uint64{{100}, {200}, {300}, {400}}
	res, err := partial.ExecuteRound(cmds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partial replication (q=%d per shard), adversary corrupts %d nodes of shard 1:\n",
		partial.GroupSize(), len(attack))
	fmt.Printf("  round correct = %v  <- shard 1's clients accepted a forged balance!\n\n", res.Correct)

	// --- CSM with the same number of corruptions, anywhere ---
	byz := map[int]codedsm.Behavior{}
	for node := range attack {
		byz[node] = codedsm.WrongResult
	}
	budget := len(attack)
	maxShards := codedsm.SyncMaxMachines(nodes, budget, 1)
	if maxShards < shards {
		log.Fatalf("capacity: %d", maxShards)
	}
	cluster, err := codedsm.Open(gold, codedsm.NewBank[uint64],
		codedsm.WithNodes(nodes), codedsm.WithMachines(shards), codedsm.WithFaults(budget),
		codedsm.WithByzantine(byz), codedsm.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	resCSM, err := cluster.ExecuteRound(cmds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSM, same %d corrupted nodes (no group to capture — every node holds a coded mix):\n", budget)
	fmt.Printf("  round correct = %v, liars identified = %v\n\n", resCSM.Correct, resCSM.FaultyDetected)

	// --- Section 7 statistics: static vs dynamic adversary on random allocation ---
	static := codedsm.RandomAllocationExperiment{
		N: nodes, K: shards, Budget: budget, Kind: codedsm.StaticAdversary, Seed: 5,
	}
	dynamic := codedsm.RandomAllocationExperiment{
		N: nodes, K: shards, Budget: budget, Kind: codedsm.DynamicAdversary, Seed: 5,
	}
	fs, err := static.Run(500)
	if err != nil {
		log.Fatal(err)
	}
	fd, err := dynamic.Run(500)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("random re-allocation of shards: static adversary captures a shard in %.1f%% of epochs,\n", 100*fs)
	fmt.Printf("a dynamic (post-facto) adversary in %.1f%% — CSM needs %d corruptions either way.\n",
		100*fd, codedsm.SyncMaxFaults(nodes, shards, 1)+1)
}
