// Command csmsim runs a configurable Coded State Machine cluster on the
// simulated network and reports per-round correctness, detected faults, and
// the measured throughput.
//
// Example:
//
//	csmsim -n 16 -k 3 -b 3 -d 2 -rounds 5 -byz 1,5,9 -behavior wrong \
//	       -consensus dolev-strong
//
// The execution phase fans out over GOMAXPROCS workers (the first output
// line echoes the count as workers=); rounds are identical at any count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"codedsm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csmsim", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 12, "number of nodes")
		k         = fs.Int("k", 0, "number of state machines (0: maximum capacity)")
		b         = fs.Int("b", 2, "fault budget")
		d         = fs.Int("d", 1, "transition degree (polynomial register machine)")
		rounds    = fs.Int("rounds", 5, "rounds to execute")
		byzList   = fs.String("byz", "", "comma-separated Byzantine node indices")
		behavior  = fs.String("behavior", "wrong", "byzantine behavior: wrong|silent|equivocate|bad-leader")
		consensus = fs.String("consensus", "oracle", "consensus: oracle|dolev-strong|pbft")
		psync     = fs.Bool("psync", false, "partially synchronous network")
		delegated = fs.Bool("delegated", false, "delegate coding to a rotating verified worker (Section 6.2; requires synchronous broadcast)")
		gst       = fs.Int("gst", 0, "global stabilization round (psync)")
		seed      = fs.Uint64("seed", 1, "random seed")
		pipeline  = fs.Int("pipeline", 0, "pipelined-engine depth: overlap up to this many rounds' client stages with later rounds (0: sequential engine)")
		batch     = fs.Int("batch", 1, "rounds per consensus instance (command batching)")
		churn     = fs.String("churn", "", "churn schedule: comma-separated round:op:node[:behavior] events, op one of crash|rejoin|corrupt|release (e.g. \"1:crash:2,3:rejoin:2,4:corrupt:5:wrong\")")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	gold := codedsm.NewGoldilocks()
	mode := codedsm.Synchronous
	if *psync {
		mode = codedsm.PartiallySynchronous
	}
	if *k == 0 {
		if *psync {
			*k = codedsm.PSyncMaxMachines(*n, *b, *d)
		} else {
			*k = codedsm.SyncMaxMachines(*n, *b, *d)
		}
		if *k < 1 {
			return fmt.Errorf("no capacity at N=%d b=%d d=%d", *n, *b, *d)
		}
	}
	beh, err := parseBehavior(*behavior)
	if err != nil {
		return err
	}
	byz, err := parseByzantine(*byzList, beh)
	if err != nil {
		return err
	}
	ck, err := parseConsensus(*consensus)
	if err != nil {
		return err
	}
	schedule, err := parseChurn(*churn)
	if err != nil {
		return err
	}
	degree := *d
	opts := []codedsm.Option{
		codedsm.WithNodes(*n), codedsm.WithMachines(*k), codedsm.WithFaults(*b),
		codedsm.WithConsensus(ck), codedsm.WithByzantine(byz), codedsm.WithSeed(*seed),
		codedsm.WithBatching(*batch), codedsm.WithPipeline(*pipeline),
		codedsm.WithChurn(schedule...),
	}
	if *psync {
		opts = append(opts, codedsm.WithPartialSync(*gst))
	}
	if *delegated {
		opts = append(opts, codedsm.WithDelegated())
	}
	cluster, err := codedsm.Open(gold,
		func(f codedsm.Field[uint64]) (*codedsm.Transition[uint64], error) {
			return codedsm.NewPolynomialRegister(f, degree)
		}, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("CSM cluster: N=%d K=%d b=%d d=%d mode=%v consensus=%v delegated=%v workers=%d batch=%d pipeline=%d byzantine=%v\n",
		*n, *k, *b, *d, mode, ck, *delegated, cluster.Parallelism(), cluster.BatchSize(), *pipeline, byz)
	wl := codedsm.RandomWorkload[uint64](gold, *rounds, *k, 1, *seed)
	results, runErr := cluster.Run(wl)
	allCorrect := true
	totalTicks := 0
	for r, res := range results {
		allCorrect = allCorrect && res.Correct
		totalTicks += res.Ticks
		fmt.Printf("round %2d: correct=%v skipped=%v faulty-detected=%v ticks=%d\n",
			r, res.Correct, res.Skipped, res.FaultyDetected, res.Ticks)
	}
	if runErr != nil {
		// Run attaches a BatchError to every mid-workload failure: the
		// completed prefix and failed round come out typed, so the partial
		// progress is surfaced without string inspection.
		var batchErr *codedsm.BatchError[uint64]
		if errors.As(runErr, &batchErr) {
			return fmt.Errorf("completed %d/%d rounds, round %d failed: %w",
				len(batchErr.Completed), *rounds, batchErr.Round, batchErr.Err)
		}
		return fmt.Errorf("completed %d/%d rounds: %w", len(results), *rounds, runErr)
	}
	ops := cluster.OpCounts()
	perNode := float64(ops.Total()) / float64(*n**rounds)
	fmt.Printf("\nsummary: all-correct=%v network-ticks=%d\n", allCorrect, totalTicks)
	if len(schedule) > 0 {
		rs := cluster.RepairStats()
		fmt.Printf("churn: epochs=%d repairs=%d failed=%d repair-ops=%d\n",
			cluster.Epoch(), rs.Repairs, rs.Failed, rs.Ops.Total())
	}
	fmt.Printf("ops total=%d (adds=%d muls=%d invs=%d)\n", ops.Total(), ops.Adds, ops.Muls, ops.Invs)
	fmt.Printf("throughput λ = K/(ops/node/round) = %.6f commands per field op\n",
		float64(*k)/perNode)
	fmt.Printf("storage efficiency γ = %d, security β = %d\n", *k, *b)
	return nil
}

func parseBehavior(s string) (codedsm.Behavior, error) {
	switch s {
	case "wrong":
		return codedsm.WrongResult, nil
	case "silent":
		return codedsm.SilentNode, nil
	case "equivocate":
		return codedsm.Equivocate, nil
	case "bad-leader":
		return codedsm.BadLeader, nil
	default:
		return codedsm.Honest, fmt.Errorf("unknown behavior %q", s)
	}
}

func parseByzantine(list string, beh codedsm.Behavior) (map[int]codedsm.Behavior, error) {
	out := map[int]codedsm.Behavior{}
	if list == "" {
		return out, nil
	}
	for _, part := range strings.Split(list, ",") {
		idx, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad node index %q: %w", part, err)
		}
		out[idx] = beh
	}
	return out, nil
}

// parseChurn parses a comma-separated churn schedule: each event is
// round:op:node with op one of crash|rejoin|corrupt|release, and corrupt
// takes a fourth :behavior part (the -behavior vocabulary).
func parseChurn(spec string) ([]codedsm.ChurnEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var out []codedsm.ChurnEvent
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("bad churn event %q: want round:op:node[:behavior]", part)
		}
		round, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad churn round in %q: %w", part, err)
		}
		node, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("bad churn node in %q: %w", part, err)
		}
		ev := codedsm.ChurnEvent{Round: round, Node: node}
		switch op := fields[1]; op {
		case "crash":
			ev.Op = codedsm.ChurnCrash
		case "rejoin":
			ev.Op = codedsm.ChurnRejoin
		case "release":
			ev.Op = codedsm.ChurnRelease
		case "corrupt":
			if len(fields) != 4 {
				return nil, fmt.Errorf("churn event %q: corrupt needs round:corrupt:node:behavior", part)
			}
			beh, err := parseBehavior(fields[3])
			if err != nil {
				return nil, fmt.Errorf("churn event %q: %w", part, err)
			}
			ev.Op, ev.Behavior = codedsm.ChurnCorrupt, beh
		default:
			return nil, fmt.Errorf("churn event %q: unknown op %q", part, op)
		}
		if ev.Op != codedsm.ChurnCorrupt && len(fields) != 3 {
			return nil, fmt.Errorf("churn event %q: only corrupt takes a behavior", part)
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseConsensus(s string) (codedsm.ConsensusKind, error) {
	switch s {
	case "oracle":
		return codedsm.OracleConsensus, nil
	case "dolev-strong":
		return codedsm.DolevStrong, nil
	case "pbft":
		return codedsm.PBFT, nil
	default:
		return codedsm.OracleConsensus, fmt.Errorf("unknown consensus %q", s)
	}
}
