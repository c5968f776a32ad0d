// Processes: the multi-process deployment harness. Where every other
// example simulates a whole cluster inside one process, this one runs a
// real N-process cluster over localhost TCP sockets and proves it
// faithful to the simulation:
//
//  1. run the workload on the in-memory simulated cluster (the
//     deterministic oracle) and digest its outputs;
//  2. `csmnode bootstrap` an N-node localhost cluster, start the N
//     csmnode processes, and drive the same workload;
//  3. require the run digest every node prints at exit to be
//     bit-identical to the oracle's.
//
// How step 2 drives the workload depends on -consensus. In the default
// oracle mode node 0 is the sequencer: the harness submits each command
// through its socket ingress and also checks every streamed output
// against the oracle as it arrives. With -consensus dolev-strong or
// pbft there is no sequencer — every node derives the same seeded
// workload and each batch is decided by a real BFT instance over the
// TCP links, so the harness starts all N processes with -rounds and
// compares their exit digests.
//
// -kill-leader (pbft only) additionally crashes node 0 — the view-0
// leader — mid-run via the CSMNODE_CRASH WAL fault-injection hook. The
// surviving three processes must route around it with a PBFT view
// change and still finish with the oracle digest.
//
// Any divergence (or a hung cluster: everything runs under a deadline)
// exits non-zero, which is what `make smoke-processes` and the CI
// multiprocess job assert.
//
//	go build -o bin/csmnode ./cmd/csmnode
//	go run ./examples/processes -csmnode bin/csmnode
//	go run ./examples/processes -csmnode bin/csmnode -consensus pbft -faults 1 -degree 1
//	go run ./examples/processes -csmnode bin/csmnode -consensus pbft -faults 1 -degree 1 -kill-leader
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"time"

	"codedsm"
	"codedsm/internal/nodeapi"
	"codedsm/internal/procharness"
)

func main() {
	csmnode := flag.String("csmnode", "csmnode", "path to the csmnode binary")
	n := flag.Int("n", 4, "cluster size")
	k := flag.Int("k", 2, "number of state machines")
	degree := flag.Int("degree", 2, "polynomial-register degree")
	faults := flag.Int("faults", 0, "fault budget b the cluster is provisioned for")
	consensus := flag.String("consensus", "oracle", "batch consensus: oracle, dolev-strong, or pbft")
	killLeader := flag.Bool("kill-leader", false, "pbft only: crash node 0 mid-run; survivors must finish via view change")
	rounds := flag.Int("rounds", 8, "workload rounds to submit")
	seed := flag.Uint64("seed", 4242, "workload and cluster seed")
	timeout := flag.Duration("timeout", 2*time.Minute, "deadline for the whole scenario")
	flag.Parse()
	log.SetFlags(0)

	if *killLeader && (*consensus != "pbft" || *faults < 1) {
		log.Fatal("FAIL: -kill-leader needs -consensus pbft and -faults >= 1")
	}
	if *killLeader && *rounds < 6 {
		log.Fatal("FAIL: -kill-leader crashes the leader around round 3; use -rounds >= 6")
	}

	deadline := time.AfterFunc(*timeout, func() {
		log.Fatalf("FAIL: scenario exceeded %v", *timeout)
	})
	defer deadline.Stop()

	workload := codedsm.RandomWorkload[uint64](codedsm.NewGoldilocks(), *rounds, *k, 1, *seed)

	// 1. The in-memory oracle run.
	oracle, oracleOutputs, err := procharness.Oracle(workload, *n, *k, *degree, *seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("oracle:   %d rounds on the simulated cluster, digest=%s", *rounds, oracle)

	// 2. Bootstrap the real cluster's config files.
	dir, err := os.MkdirTemp("", "csmnode-cluster-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bootArgs := []string{"-k", fmt.Sprint(*k), "-degree", fmt.Sprint(*degree),
		"-faults", fmt.Sprint(*faults), "-seed", fmt.Sprint(*seed)}
	if *consensus != "oracle" {
		bootArgs = append(bootArgs, "-consensus", *consensus)
	} else {
		bootArgs = append(bootArgs, "-serve")
	}
	if *killLeader {
		// The crash hook fires in the WAL layer, so the kill variant
		// needs durable nodes.
		bootArgs = append(bootArgs, "-data-dir", filepath.Join(dir, "data"))
	}
	h := procharness.New(*csmnode, dir, *n)
	h.Verbose = true
	if err := h.Bootstrap(bootArgs...); err != nil {
		log.Fatal(err)
	}
	defer h.KillAll()

	if *consensus == "oracle" {
		runIngress(h, workload, oracle, oracleOutputs)
	} else {
		runConsensus(h, *rounds, *consensus, *killLeader, oracle)
	}
}

// runIngress is the sequencer deployment: node 0 serves the socket
// ingress, the harness submits the workload command by command and
// checks every streamed output against the oracle as it arrives.
func runIngress(h *procharness.Cluster, workload [][][]uint64, oracle string, oracleOutputs [][][]uint64) {
	clientAddr, err := h.ClientAddr()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < h.N; i++ {
		var args []string
		if i == 0 {
			args = []string{"-serve"}
		}
		if err := h.Start(i, args); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("cluster:  %d csmnode processes up, ingress at %s", h.N, clientAddr)

	client, err := nodeapi.Dial(clientAddr, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	for r, cmds := range workload {
		for m, cmd := range cmds {
			if err := client.Submit(m, cmd); err != nil {
				log.Fatalf("submit round %d machine %d: %v", r, m, err)
			}
		}
		for range cmds {
			resp, err := client.ReadResult()
			if err != nil {
				log.Fatalf("reading results of round %d: %v", r, err)
			}
			want := oracleOutputs[resp.Round][resp.Machine]
			if !slices.Equal(resp.Output, want) {
				log.Fatalf("FAIL: round %d machine %d: cluster output %v, oracle %v",
					resp.Round, resp.Machine, resp.Output, want)
			}
		}
	}
	remoteDigest, err := client.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ingress:  %d rounds submitted over the socket, digest=%s", len(workload), remoteDigest)

	// Every process must exit cleanly and print the oracle digest.
	if remoteDigest != oracle {
		log.Fatalf("FAIL: ingress digest %s, oracle %s", remoteDigest, oracle)
	}
	if err := h.AwaitAll(oracle, len(workload)); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
	log.Printf("PASS: %d processes x %d rounds bit-identical to the in-memory oracle", h.N, len(workload))
}

// runConsensus is the symmetric BFT deployment: every node runs the
// same -rounds seeded workload and each batch is decided by the real
// consensus protocol over the TCP links. With killLeader the harness
// arms a WAL crash hook on node 0 so it dies around round 3 — rounds
// 0-2 prove the view-0 leader path, the rest prove the view change.
func runConsensus(h *procharness.Cluster, rounds int, consensus string, killLeader bool, oracle string) {
	for i := 0; i < h.N; i++ {
		var env []string
		if killLeader && i == 0 {
			// A durable round appends once (its applied state, after the
			// decode); the 4th append is the end of round 3, after node 0
			// already served as PBFT leader for three durable batches.
			env = []string{"CSMNODE_CRASH=wal-before-append@4"}
		}
		if err := h.Start(i, []string{"-rounds", fmt.Sprint(rounds)}, env...); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("cluster:  %d csmnode processes running %s over TCP", h.N, consensus)

	for i := 0; i < h.N; i++ {
		res, err := h.Wait(i)
		if killLeader && i == 0 {
			if err == nil {
				log.Fatalf("FAIL: node 0 survived its injected crash (digest %s at round %d)", res.Digest, res.Rounds)
			}
			log.Print("leader:   node 0 killed by injected WAL crash")
			continue
		}
		if err != nil {
			log.Fatalf("FAIL: %v", err)
		}
		if res.Digest != oracle || res.Rounds != rounds {
			log.Fatalf("FAIL: node %d digest %s at round %d, oracle %s at %d", i, res.Digest, res.Rounds, oracle, rounds)
		}
	}
	if killLeader {
		log.Printf("PASS: %d survivors finished %d rounds via %s view change, bit-identical to the in-memory oracle", h.N-1, rounds, consensus)
	} else {
		log.Printf("PASS: %d processes x %d rounds of %s bit-identical to the in-memory oracle", h.N, rounds, consensus)
	}
}
