// Command csmload is the repo's benchmark: four named workloads, each
// validated against an uncoded replay, four end-to-end metrics per
// workload, and — with -trace 1 — a ladder of per-layer metrics measured
// by interposing on the transport.Link and by replaying each layer's
// public functions at the workload's shape. README.md in this directory
// has the tables; BENCHMARK.json at the repo root restates the names.
//
//	go run ./cmd/csmload                          # all four workloads, untraced
//	go run ./cmd/csmload -workload tcp-oracle     # one workload
//	go run ./cmd/csmload -workload sim-honest -trace 1 -trace-out /tmp/spans
//	go run ./cmd/csmload -selfcheck               # two untraced sets must agree within the bounds
//
// The last line of standard output of a single-workload run is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "csmload:", err)
		os.Exit(1)
	}
}

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	rounds    int
	traceOut  string
	selfcheck bool
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("csmload", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 9, "workload seed: the same seed gives the same commands")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "seconds to measure each workload for (ignored with -rounds)")
	fs.IntVar(&cfg.trace, "trace", 0, "1: traced run, reports the per-layer metrics; 0: untraced, reports the end-to-end metrics")
	fs.IntVar(&cfg.rounds, "rounds", 0, "run exactly this many rounds instead of measuring for -seconds")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1: directory to write one <workload>.spans.jsonl into (default: spans stay in memory)")
	fs.BoolVar(&cfg.selfcheck, "selfcheck", false, "run the untraced set twice and fail if an end-to-end metric moves by more than its bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.seconds <= 0 || cfg.rounds < 0 || (cfg.trace != 0 && cfg.trace != 1) {
		return fmt.Errorf("need -seconds > 0, -rounds >= 0 and -trace 0 or 1")
	}
	selected := workloads
	if cfg.workload != "all" {
		w, err := findWorkload(cfg.workload)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	printMeta(stdout, cfg)
	if cfg.selfcheck {
		return selfcheck(stdout, cfg, selected)
	}
	for _, w := range selected {
		var res result
		var err error
		if cfg.trace == 1 {
			res, err = tracedRun(stdout, cfg, w)
		} else {
			res, err = untracedRun(stdout, cfg, w)
		}
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d commands failed validation", w.name, res.Failed, res.Attempted)
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setupRepeats is how many times an untraced run times set-up. A set-up
// takes 50 to 150 ms, so the median of many is cheap and much steadier
// than one.
const setupRepeats = 25

// untraced is the options of an end-to-end run: all of -seconds, no
// tracer, set-up repeated.
func (c config) untraced() runOptions {
	return runOptions{
		seed:    c.seed,
		rounds:  c.rounds,
		seconds: time.Duration(c.seconds * float64(time.Second)),
		setups:  setupRepeats,
	}
}

// untracedRun measures one workload's end-to-end metrics.
func untracedRun(stdout io.Writer, cfg config, w workload) (result, error) {
	r, err := runWorkload(w, cfg.untraced())
	if err != nil {
		return result{}, err
	}
	printRun(stdout, r)
	vals := r.endToEndValues()
	printMetrics(stdout, endToEndDefs, vals)
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: pack(endToEndDefs, vals)}, nil
}

// printMeta records where and on what the numbers were taken, so a row
// from a 2-core host says so.
func printMeta(stdout io.Writer, cfg config) {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(stdout, "# csmload nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d scratch_fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, cfg.seed, fsType("."))
}

// fsType names the file system holding path (where the WAL workload's
// fsyncs land).
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func printRun(stdout io.Writer, r *runResult) {
	w := r.w
	engine := "Cluster (simulated network)"
	if w.tcp {
		engine = "NodeProcess x N (loopback TCP)"
	}
	measured := len(dropWarmup(r.samples))
	fmt.Fprintf(stdout, "\n## %s: %s\n", w.name, w.why)
	fmt.Fprintf(stdout, "# engine=%s N=%d K=%d b=%d liars=%d batch=%d rounds=%d samples=%d (+%d warm-up) parallelism=%d\n",
		engine, w.n, w.k, w.faults, w.liars, w.batch, len(r.samples)*w.batch, measured, len(r.samples)-measured, r.counters.parallelism)
	fmt.Fprintf(stdout, "# validated against the uncoded replay: attempted=%d failed=%d failed_frac=%g; final states and digests match\n",
		r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	fmt.Fprintf(stdout, "# cmds/s by segment: %.0f\n", r.e2e.segRates)
	if p := supportedPercentile(measured); p > 0 {
		fmt.Fprintf(stdout, "# highest percentile with >= %d samples beyond it: p%g = %.4f ms\n",
			minBeyond, p, percentile(latenciesMs(dropWarmup(r.samples)), p))
	}
}

func printMetrics(stdout io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		line := fmt.Sprintf("%-34s %14.4f %-6s better=%s", d.name, vals[d.name], d.unit, d.better)
		if d.bound > 0 {
			line += fmt.Sprintf(" bound=%g%%", d.bound*100)
		}
		fmt.Fprintln(stdout, line)
	}
}

// selfcheck runs the untraced set twice in one invocation and fails if
// any end-to-end metric of any workload is worse in either run than in
// the other by more than its bound.
func selfcheck(stdout io.Writer, cfg config, selected []workload) error {
	var bad []string
	for _, w := range selected {
		var runs [2]map[string]float64
		for i := range runs {
			r, err := runWorkload(w, cfg.untraced())
			if err != nil {
				return err
			}
			if r.failed != 0 {
				return fmt.Errorf("%s: %d of %d commands failed validation", w.name, r.failed, r.attempted)
			}
			printRun(stdout, r)
			runs[i] = r.endToEndValues()
			printMetrics(stdout, endToEndDefs, runs[i])
		}
		for _, d := range endToEndDefs {
			a, b := runs[0][d.name], runs[1][d.name]
			diff := (max(a, b) - min(a, b)) / min(a, b)
			verdict := "ok"
			if diff > d.bound {
				verdict = "FAIL"
				bad = append(bad, fmt.Sprintf("%s/%s", w.name, d.name))
			}
			fmt.Fprintf(stdout, "selfcheck %-16s %-16s %12.4f vs %12.4f  diff=%5.1f%% bound=%g%% %s\n",
				w.name, d.name, a, b, diff*100, d.bound*100, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two runs of the same code disagree beyond the bound on %s", strings.Join(bad, ", "))
	}
	return nil
}
