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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"codedsm"
	"codedsm/internal/nodeapi"
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

	gold := codedsm.NewGoldilocks()
	workload := codedsm.RandomWorkload[uint64](gold, *rounds, *k, 1, *seed)

	// 1. The in-memory oracle run.
	oracle, oracleOutputs := oracleDigest(gold, workload, *n, *k, *degree, *seed)
	log.Printf("oracle:   %d rounds on the simulated cluster, digest=%s", *rounds, oracle)

	// 2. Bootstrap the real cluster's config files.
	dir, err := os.MkdirTemp("", "csmnode-cluster-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	bootArgs := []string{"bootstrap", "-dir", dir,
		"-n", fmt.Sprint(*n), "-k", fmt.Sprint(*k), "-degree", fmt.Sprint(*degree),
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
	bootstrap := exec.Command(*csmnode, bootArgs...)
	bootstrap.Stderr = os.Stderr
	if err := bootstrap.Run(); err != nil {
		log.Fatalf("csmnode bootstrap: %v", err)
	}

	if *consensus == "oracle" {
		runIngress(*csmnode, dir, *n, *rounds, workload, oracle, oracleOutputs)
	} else {
		runConsensus(*csmnode, dir, *n, *rounds, *consensus, *killLeader, oracle)
	}
}

// runIngress is the sequencer deployment: node 0 serves the socket
// ingress, the harness submits the workload command by command and
// checks every streamed output against the oracle as it arrives.
func runIngress(csmnode, dir string, n, rounds int, workload [][][]uint64, oracle string, oracleOutputs [][][]uint64) {
	clientAddr := clientListenAddr(filepath.Join(dir, "node0.json"))

	procs := make([]*exec.Cmd, n)
	outputs := make([]*strings.Builder, n)
	for i := range procs {
		args := []string{"run", "-config", filepath.Join(dir, fmt.Sprintf("node%d.json", i))}
		if i == 0 {
			args = append(args, "-serve")
		}
		procs[i] = startNode(csmnode, args, nil, &outputs[i])
	}
	defer killAll(procs)
	log.Printf("cluster:  %d csmnode processes up, ingress at %s", n, clientAddr)

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
			if !equalU64(resp.Output, want) {
				log.Fatalf("FAIL: round %d machine %d: cluster output %v, oracle %v",
					resp.Round, resp.Machine, resp.Output, want)
			}
		}
	}
	remoteDigest, err := client.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("ingress:  %d rounds submitted over the socket, digest=%s", rounds, remoteDigest)

	// Every process must exit cleanly and print the oracle digest.
	for i, p := range procs {
		if err := p.Wait(); err != nil {
			log.Fatalf("FAIL: node %d exited with %v\n%s", i, err, outputs[i])
		}
	}
	if remoteDigest != oracle {
		log.Fatalf("FAIL: ingress digest %s, oracle %s", remoteDigest, oracle)
	}
	for i := range procs {
		if d := digestLine(outputs[i].String()); d != oracle {
			log.Fatalf("FAIL: node %d digest %s, oracle %s", i, d, oracle)
		}
	}
	log.Printf("PASS: %d processes x %d rounds bit-identical to the in-memory oracle", n, rounds)
}

// runConsensus is the symmetric BFT deployment: every node runs the
// same -rounds seeded workload and each batch is decided by the real
// consensus protocol over the TCP links. With killLeader the harness
// arms a WAL crash hook on node 0 so it dies around round 3 — rounds
// 0-2 prove the view-0 leader path, the rest prove the view change.
func runConsensus(csmnode, dir string, n, rounds int, consensus string, killLeader bool, oracle string) {
	procs := make([]*exec.Cmd, n)
	outputs := make([]*strings.Builder, n)
	for i := range procs {
		args := []string{"run", "-config", filepath.Join(dir, fmt.Sprintf("node%d.json", i)),
			"-rounds", fmt.Sprint(rounds)}
		var env []string
		if killLeader && i == 0 {
			// A durable round appends once (its applied state, after the
			// decode); the 4th append is the end of round 3, after node 0
			// already served as PBFT leader for three durable batches.
			env = append(os.Environ(), "CSMNODE_CRASH=wal-before-append@4")
		}
		procs[i] = startNode(csmnode, args, env, &outputs[i])
	}
	defer killAll(procs)
	log.Printf("cluster:  %d csmnode processes running %s over TCP", n, consensus)

	for i, p := range procs {
		err := p.Wait()
		if killLeader && i == 0 {
			if err == nil {
				log.Fatalf("FAIL: node 0 survived its injected crash\n%s", outputs[0])
			}
			log.Printf("leader:   node 0 killed by injected WAL crash (%v)", err)
			continue
		}
		if err != nil {
			log.Fatalf("FAIL: node %d exited with %v\n%s", i, err, outputs[i])
		}
		if d := digestLine(outputs[i].String()); d != oracle {
			log.Fatalf("FAIL: node %d digest %s, oracle %s", i, d, oracle)
		}
	}
	if killLeader {
		log.Printf("PASS: %d survivors finished %d rounds via %s view change, bit-identical to the in-memory oracle", n-1, rounds, consensus)
	} else {
		log.Printf("PASS: %d processes x %d rounds of %s bit-identical to the in-memory oracle", n, rounds, consensus)
	}
}

// startNode launches one csmnode process with its stdout captured.
func startNode(csmnode string, args, env []string, out **strings.Builder) *exec.Cmd {
	p := exec.Command(csmnode, args...)
	*out = &strings.Builder{}
	p.Stdout = *out
	p.Stderr = os.Stderr
	p.Env = env
	if err := p.Start(); err != nil {
		log.Fatalf("starting %v: %v", args, err)
	}
	return p
}

func killAll(procs []*exec.Cmd) {
	for _, p := range procs {
		if p.Process != nil {
			p.Process.Kill()
		}
	}
}

// oracleDigest runs the workload on the simulated cluster and returns
// the canonical digest plus the per-round outputs for streaming checks.
func oracleDigest(gold codedsm.Goldilocks, workload [][][]uint64, n, k, degree int, seed uint64) (string, [][][]uint64) {
	cluster, err := codedsm.Open(gold,
		func(f codedsm.Field[uint64]) (*codedsm.Transition[uint64], error) {
			return codedsm.NewPolynomialRegister(f, degree)
		},
		codedsm.WithNodes(n),
		codedsm.WithMachines(k),
		codedsm.WithFaults(0),
		codedsm.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	results, err := cluster.Run(workload)
	if err != nil {
		log.Fatal(err)
	}
	digest := nodeapi.NewDigest()
	outputs := make([][][]uint64, len(results))
	for r, res := range results {
		if !res.Correct {
			log.Fatalf("oracle round %d incorrect", r)
		}
		digest.AddRound(r, res.Outputs)
		outputs[r] = res.Outputs
	}
	return digest.Sum(), outputs
}

// clientListenAddr extracts client_listen from the sequencer's config.
func clientListenAddr(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var cfg struct {
		ClientListen string `json:"client_listen"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	if cfg.ClientListen == "" {
		log.Fatalf("no client_listen in %s (bootstrap without -serve?)", path)
	}
	return cfg.ClientListen
}

// digestLine extracts the digest=<hex> line a csmnode prints at exit.
func digestLine(out string) string {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if d, ok := strings.CutPrefix(sc.Text(), "digest="); ok {
			return d
		}
	}
	return "<no digest line>"
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
