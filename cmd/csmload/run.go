package main

import (
	"errors"
	"fmt"
	"slices"
	"syscall"
	"time"
)

// engine is what the generator drives: one of the product's two round
// engines behind its public entry points.
type engine interface {
	// runBatch submits B consecutive rounds, one command per machine
	// each, and blocks until every command has resolved. out[j][m] is
	// machine m's output in the batch's j-th round, nil for a command
	// that failed (errored future, round not Correct, or nodes
	// disagreeing). id labels the batch's spans; root is their parent.
	runBatch(id, root int, cmds [][][]uint64) (out [][][]uint64, err error)
	// finish stops the engine and checks what only it can see — final
	// machine states (sim) or every node's run digest (tcp) — against
	// the uncoded replay.
	finish(o *oracle) error
	// counters reports the engine-side counts; complete after finish.
	counters() engineCounters
}

// engineCounters are exact counts an engine exposes about the rounds it
// ran (zero where the engine has no such notion).
type engineCounters struct {
	rounds         int
	faultyDetected int             // Σ len(RoundResult.FaultyDetected)
	ticks          int             // Σ RoundResult.Ticks (sim) or node-0 link steps (traced tcp)
	skipped        int             // rounds a consensus instance skipped
	fieldOps       uint64          // Cluster.OpCounts().Total()
	parallelism    int             // effective Cluster.Parallelism()
	link           linkCounts      // traced tcp: the Link decorators' counts, summed over nodes
	link0          linkCounts      // traced tcp: node 0's alone (the generator's blocking path)
	callTimes      []time.Duration // tcp: node 0's direct LeadBatch/RunWorkload call, per batch
	forgeries      uint64          // tcp: Σ TCP.Stats().ForgeriesDropped
	digest         string          // tcp: node 0's run digest over every decoded output
	// durable tcp: what wal.Scan finds in node 0's surviving segments.
	walRecords, walRounds int
	walBytes              uint64
}

// runOptions selects how long and how observed one run is.
type runOptions struct {
	seed    uint64
	rounds  int           // fixed round count; 0 means run for duration
	seconds time.Duration // measuring budget when rounds == 0
	setups  int           // how many times set-up is timed (>= 1); setup_s is their median
	tr      *tracer       // nil: untraced
}

// runResult is one workload run, validated.
type runResult struct {
	w         workload
	setupS    float64 // median of the timed set-ups, seconds
	samples   []sample
	e2e       endToEnd
	attempted int
	failed    int
	counters  engineCounters
	memAllocs uint64 // runtime.MemStats deltas over the measured loop
	memBytes  uint64
}

// rusage reads the process's resource usage; the zero value stands in
// if the kernel refuses (it does not for RUSAGE_SELF).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's cumulative user+sys CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// openEngine builds the workload's engine, ready for its first batch.
func openEngine(w workload, tr *tracer) (engine, error) {
	if w.tcp {
		return openMesh(w, tr)
	}
	return openSim(w, tr)
}

// timeSetups measures set-up on throwaway engines and returns the times
// in seconds: key derivation, code construction, coded initial states,
// mesh dial and WAL open, and the first batch through to its results —
// whatever an engine builds lazily on first use is set-up too, so work
// moved out of the steady state into a cache shows here. The measured
// loop builds its own engine, so it always starts from a fresh,
// identical state.
func timeSetups(w workload, seed uint64, repeats int) ([]float64, error) {
	times := make([]float64, repeats)
	for i := range times {
		o, err := newOracle(w.k)
		if err != nil {
			return nil, err
		}
		src := &commandSource{k: w.k, batch: w.batch, seed: seed}
		first := src.next()
		start := time.Now()
		eng, err := openEngine(w, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		failed, err := checkedBatch(eng, o, 0, 0, first)
		times[i] = time.Since(start).Seconds()
		if err == nil && failed > 0 {
			err = fmt.Errorf("set-up: %d commands of the first batch failed validation", failed)
		}
		if err = errors.Join(err, eng.finish(o)); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// checkedBatch runs one batch and compares every command's output with
// the uncoded replay. It returns the number of commands that failed.
func checkedBatch(eng engine, o *oracle, id, root int, cmds [][][]uint64) (failed int, err error) {
	want := make([][][]uint64, len(cmds))
	for j, round := range cmds {
		if want[j], err = o.step(round); err != nil {
			return 0, err
		}
	}
	out, err := eng.runBatch(id, root, cmds)
	if err != nil {
		return 0, err
	}
	for j := range want {
		for m := range want[j] {
			if out[j][m] == nil || !slices.Equal(out[j][m], want[j][m]) {
				failed++
			}
		}
	}
	return failed, nil
}

// runWorkload is the load generator: closed loop, one goroutine, one
// batch in flight. It returns an error — the run is invalid, not merely
// slow — when the engine fails or its final state differs from the
// uncoded replay.
func runWorkload(w workload, opt runOptions) (*runResult, error) {
	res := &runResult{w: w}
	// A set-up is short, so its repeats sit in one moment of the host's
	// mood: half are timed before the measured loop and half after it,
	// and setup_s is the median of them all.
	setups, err := timeSetups(w, opt.seed, (opt.setups+1)/2)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o, err := newOracle(w.k)
	if err != nil {
		return nil, err
	}
	eng, err := openEngine(w, opt.tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	src := &commandSource{k: w.k, batch: w.batch, seed: opt.seed}
	batches := 0
	if opt.rounds > 0 {
		batches = (opt.rounds + w.batch - 1) / w.batch
	}
	mem0 := readMem()
	epoch := time.Now()
	if opt.tr != nil {
		epoch = opt.tr.epoch
	}
	deadline := time.Now().Add(opt.seconds)
	// A fixed-count run stops at its count; a time-bound one at its
	// deadline, but not before the two batches a summary needs.
	more := func(i int) bool {
		if batches > 0 {
			return i < batches
		}
		return i < 2 || time.Now().Before(deadline)
	}
	for i := 0; more(i); i++ {
		cmds := src.next()
		id := i + 1
		root := opt.tr.reserve()
		start := time.Now()
		failed, err := checkedBatch(eng, o, id, root, cmds)
		end := time.Now()
		if err != nil {
			return nil, errors.Join(fmt.Errorf("%s: batch %d: %w", w.name, id, err), eng.finish(o))
		}
		opt.tr.finish(root, "batch", "client", id, 0, -1, start, end)
		res.samples = append(res.samples, sample{start: start.Sub(epoch), end: end.Sub(epoch), cpu: cpuTime()})
		res.attempted += w.cmdsPerBatch()
		res.failed += failed
	}
	mem1 := readMem()
	res.memAllocs, res.memBytes = mem1.allocs-mem0.allocs, mem1.bytes-mem0.bytes
	if err := eng.finish(o); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.counters = eng.counters()
	after, err := timeSetups(w, opt.seed, opt.setups/2)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.setupS = median(append(setups, after...))
	if len(res.samples) < 2 {
		return nil, fmt.Errorf("%s: %d batches measured, need at least 2 (one is warm-up)", w.name, len(res.samples))
	}
	measured := dropWarmup(res.samples)
	res.e2e = summarize(res.samples[len(res.samples)-len(measured)-1], measured, w.cmdsPerBatch())
	return res, nil
}
