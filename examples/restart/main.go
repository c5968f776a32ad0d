// Restart: the crash-restart harness for durable coded state. Where
// examples/processes proves a healthy multi-process cluster faithful to
// the in-memory simulation, this one proves a *crashing* one is too:
//
//  1. run the workload on the in-memory simulated cluster and digest its
//     outputs (the oracle);
//  2. bootstrap a durable csmnode cluster (-data-dir: every node
//     logs each executed round's state and snapshots its coded share);
//  3. SIGKILL all N processes mid-workload — no warning, no flush — and
//     restart them from their data directories, several times;
//  4. one cycle arms CSMNODE_CRASH so a node dies halfway through a WAL
//     record write: recovery must detect the torn tail and truncate it;
//  5. the final incarnation runs to completion, and every node must
//     print the oracle's digest bit for bit, at exactly the workload's
//     round count.
//
// Any divergence, hang (everything runs under a deadline), or failed
// recovery exits non-zero — `make smoke-restart` and the CI durability
// job assert this end to end.
//
//	go build -o bin/csmnode ./cmd/csmnode
//	go run ./examples/restart -csmnode bin/csmnode
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"codedsm"
	"codedsm/internal/procharness"
)

func main() {
	csmnode := flag.String("csmnode", "csmnode", "path to the csmnode binary")
	n := flag.Int("n", 4, "cluster size")
	k := flag.Int("k", 2, "number of state machines")
	degree := flag.Int("degree", 2, "polynomial-register degree")
	rounds := flag.Int("rounds", 48, "workload rounds")
	seed := flag.Uint64("seed", 4242, "workload and cluster seed")
	cycles := flag.Int("kill-cycles", 2, "whole-cluster SIGKILL cycles before the final run")
	killAfter := flag.Duration("kill-after", 200*time.Millisecond, "delay between first WAL progress and SIGKILL")
	timeout := flag.Duration("timeout", 4*time.Minute, "deadline for the whole scenario")
	flag.Parse()
	log.SetFlags(0)

	deadline := time.AfterFunc(*timeout, func() {
		log.Fatalf("FAIL: scenario exceeded %v", *timeout)
	})
	defer deadline.Stop()

	// 1. The oracle: same workload, in-memory simulated cluster.
	workload := codedsm.RandomWorkload[uint64](codedsm.NewGoldilocks(), *rounds, *k, 1, *seed)
	oracle, _, err := procharness.Oracle(workload, *n, *k, *degree, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("oracle:   digest=%s over %d rounds (in-memory cluster)", oracle, *rounds)

	// 2. A durable cluster: snapshot often so recovery exercises both the
	// snapshot-load and the WAL-suffix-replay paths.
	dir, err := os.MkdirTemp("", "csmnode-restart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	h := procharness.New(*csmnode, dir, *n)
	if err := h.Bootstrap(
		"-k", fmt.Sprint(*k), "-degree", fmt.Sprint(*degree), "-seed", fmt.Sprint(*seed),
		"-data-dir", filepath.Join(dir, "data"), "-snapshot-every", "4"); err != nil {
		log.Fatal(err)
	}
	node0Data := filepath.Join(dir, "data", "node0")

	// 3. Whole-cluster SIGKILL mid-workload, repeatedly. Each incarnation
	// resumes from its durable state, reconciles crash skew peer to peer,
	// and makes some progress before the next kill.
	for cycle := 1; cycle <= *cycles; cycle++ {
		if err := h.StartAll(*rounds, nil); err != nil {
			log.Fatal(err)
		}
		h.WaitWALProgress(node0Data, int64(64*cycle), 20*time.Second)
		time.Sleep(*killAfter)
		h.KillAll()
		log.Printf("cycle %d:  SIGKILLed all %d nodes mid-workload", cycle, *n)
	}

	// 4. A surgical crash inside a WAL record write: the last follower
	// dies with roughly half a record on disk, and the rest of the
	// cluster is killed while it waits at the barrier. The torn tail must
	// be truncated on the next recovery.
	torn := *n - 1
	if err := h.StartAll(*rounds, func(i int) []string {
		if i == torn {
			return []string{"CSMNODE_CRASH=wal-mid-record@7"}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	h.WaitExit(torn)
	h.KillAll()
	log.Printf("cycle %d:  node %d crashed mid-record (injected), rest killed at the barrier", *cycles+1, torn)

	// 5. The final incarnation runs to completion; every node must land
	// on the oracle's digest at exactly the workload's round count.
	if err := h.StartAll(*rounds, nil); err != nil {
		log.Fatal(err)
	}
	if err := h.AwaitAll(oracle, *rounds); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("PASS: %d processes, %d crash-restart cycles, final digest bit-identical to the oracle", *n, *cycles+1)
}
