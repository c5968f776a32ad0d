// Soak: a duration-bounded churn-and-crash torture loop. Each iteration
// interleaves two stress phases until the time budget runs out:
//
//   - In-process churn: a simulated cluster under a MovingAdversary
//     (the Section 7 adaptive adversary relocating its corruptions every
//     epoch) plus explicit crash/repair/rejoin churn, every round checked
//     correct.
//
//   - Process crash-restart: a fresh durable csmnode cluster is
//     SIGKILLed mid-workload a random number of times at random moments,
//     then run to completion — every node must land bit-identical to the
//     in-memory oracle.
//
// The defaults are a CI-sized smoke (`make soak-short`, seconds); `make
// soak` runs the same loop for minutes. Any incorrect round, digest
// divergence, failed recovery, or hang (a deadline guards the loop)
// exits non-zero.
//
//	go build -o bin/csmnode ./cmd/csmnode
//	go run ./examples/soak -csmnode bin/csmnode -duration 30s
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"codedsm"
	"codedsm/internal/procharness"
)

const (
	churnNodes    = 16
	churnMachines = 4
	churnBudget   = 3

	procNodes    = 4
	procMachines = 2
	procDegree   = 2
	procRounds   = 40
)

func main() {
	csmnode := flag.String("csmnode", "", "path to the csmnode binary (empty: skip the process-restart phase)")
	duration := flag.Duration("duration", 15*time.Second, "soak time budget")
	seed := flag.Uint64("seed", 99, "base seed; each iteration derives its own")
	flag.Parse()
	log.SetFlags(0)

	// The budget bounds when new iterations start; the deadline catches a
	// hung iteration well after the budget.
	stop := time.Now().Add(*duration)
	deadline := time.AfterFunc(*duration+4*time.Minute, func() {
		log.Fatal("FAIL: an iteration hung past the soak budget")
	})
	defer deadline.Stop()

	gold := codedsm.NewGoldilocks()
	rng := rand.New(rand.NewSource(int64(*seed)))
	iters := 0
	for ; iters == 0 || time.Now().Before(stop); iters++ {
		iterSeed := *seed + uint64(iters)*7919
		churnSoak(gold, iterSeed)
		if *csmnode != "" {
			crashSoak(gold, *csmnode, iterSeed, rng)
		}
	}
	log.Printf("PASS: %d soak iterations in %v", iters, *duration)
}

// churnSoak runs one in-process phase in two independent clusters: one
// under a moving adversary relocating its full corruption budget every
// other round, one doing crash/repair/rejoin churn next to a static
// liar. Every round's decoded outputs are checked correct. The two are
// separate because the adversary picks targets blindly — corrupting an
// explicitly crashed node is (correctly) rejected by the engine.
func churnSoak(gold codedsm.Goldilocks, seed uint64) {
	adversary, err := codedsm.MovingAdversary(churnNodes, churnBudget, 2, codedsm.WrongResult, seed)
	if err != nil {
		log.Fatal(err)
	}
	moving, err := codedsm.Open(gold, codedsm.NewBank[uint64],
		codedsm.WithNodes(churnNodes), codedsm.WithMachines(churnMachines),
		codedsm.WithFaults(churnBudget), codedsm.WithChurnFn(adversary),
		codedsm.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	wl := codedsm.RandomWorkload[uint64](gold, 8, churnMachines, 1, seed)
	mustCorrect(moving.Run(wl))

	liar := int(seed % uint64(churnNodes))
	crashing, err := codedsm.Open(gold, codedsm.NewBank[uint64],
		codedsm.WithNodes(churnNodes), codedsm.WithMachines(churnMachines),
		codedsm.WithFaults(churnBudget), codedsm.WithByzantineNode(liar, codedsm.WrongResult),
		codedsm.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	crashed := int((seed >> 8) % uint64(churnNodes))
	mustCorrect(crashing.Run(wl[:4]))
	if err := crashing.Crash(crashed); err != nil {
		log.Fatalf("crash node %d: %v", crashed, err)
	}
	mustCorrect(crashing.Run(wl[4:6]))
	if err := crashing.Rejoin(crashed); err != nil {
		log.Fatalf("rejoin node %d: %v", crashed, err)
	}
	mustCorrect(crashing.Run(wl[6:]))
}

func mustCorrect(results []*codedsm.RoundResult[uint64], err error) {
	if err != nil {
		log.Fatal(err)
	}
	for r, res := range results {
		if !res.Correct {
			log.Fatalf("churn round %d incorrect", r)
		}
	}
}

// crashSoak runs one process phase: a fresh durable cluster, a random
// number of whole-cluster SIGKILLs at random moments, then a final run
// whose every node must print the oracle digest at the full round count.
func crashSoak(gold codedsm.Goldilocks, csmnode string, seed uint64, rng *rand.Rand) {
	workload := codedsm.RandomWorkload[uint64](gold, procRounds, procMachines, 1, seed)
	oracle, _, err := procharness.Oracle(workload, procNodes, procMachines, procDegree, seed)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "csmnode-soak-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	h := procharness.New(csmnode, dir, procNodes)
	if err := h.Bootstrap(
		"-k", fmt.Sprint(procMachines), "-degree", fmt.Sprint(procDegree),
		"-seed", fmt.Sprint(seed),
		"-data-dir", filepath.Join(dir, "data"), "-snapshot-every", "4"); err != nil {
		log.Fatal(err)
	}
	node0Data := filepath.Join(dir, "data", "node0")
	kills := 1 + rng.Intn(3)
	for cycle := 0; cycle < kills; cycle++ {
		if err := h.StartAll(procRounds, nil); err != nil {
			log.Fatal(err)
		}
		h.WaitWALProgress(node0Data, int64(64*(cycle+1)), 20*time.Second)
		time.Sleep(time.Duration(rng.Intn(250)) * time.Millisecond)
		h.KillAll()
	}
	if err := h.StartAll(procRounds, nil); err != nil {
		log.Fatal(err)
	}
	if err := h.AwaitAll(oracle, procRounds); err != nil {
		log.Fatalf("FAIL (seed %d, %d kills): %v", seed, kills, err)
	}
	log.Printf("soak:     seed %d survived %d whole-cluster SIGKILLs, digest bit-identical", seed, kills)
}
