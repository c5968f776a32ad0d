package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"codedsm"
)

// Shares of -seconds a traced run spends on its three parts: an untraced
// baseline (for trace.overhead_frac), the traced workload, and the layer
// replays, which split theirs into replayCount slices: one per replayed
// function, directRoundSlices for the direct round.
const (
	baselineShare = 0.3
	tracedShare   = 0.3
	replayShare   = 0.3
	replayCount   = 20

	directRoundSlices = 4
)

// tracedRun produces one workload's per-layer metrics: it runs the
// workload untraced and then again with spans and counters on, replays
// every layer at the workload's shape, and relates the two.
func tracedRun(stdout io.Writer, cfg config, w workload) (result, error) {
	// setup_s is an end-to-end metric: these runs set up once.
	opt := runOptions{seed: cfg.seed, rounds: cfg.rounds, setups: 1}
	opt.seconds = time.Duration(cfg.seconds * baselineShare * float64(time.Second))
	base, err := runWorkload(w, opt)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(time.Now())
	opt.tr = tr
	opt.seconds = time.Duration(cfg.seconds * tracedShare * float64(time.Second))
	r, err := runWorkload(w, opt)
	if err != nil {
		return result{}, err
	}
	if cfg.traceOut != "" {
		if err := tr.flush(cfg.traceOut, w.name); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	each := time.Duration(cfg.seconds * replayShare / replayCount * float64(time.Second))
	vals := make(map[string]float64, len(perLayerDefs))
	c := r.counters
	fanout := max(c.parallelism, 1)
	lt, err := replayLayers(w, fanout, each, vals)
	if err != nil {
		return result{}, fmt.Errorf("%s: replaying layers: %w", w.name, err)
	}
	cmds, rounds := float64(r.attempted), float64(c.rounds)
	measured := dropWarmup(r.samples)
	lat := latenciesMs(measured)
	batchTime := time.Duration(median(lat) * float64(time.Millisecond))

	// csm: one round by direct call, without the generator around it.
	var roundTime time.Duration
	if w.tcp {
		roundTime = medianDuration(c.callTimes) / time.Duration(w.batch)
	} else if roundTime, err = directSimRound(w, cfg.seed, directRoundSlices*each); err != nil {
		return result{}, err
	}
	vals["csm.round_us"] = us(roundTime)
	vals["csm.allocs_per_cmd"] = float64(r.memAllocs) / cmds
	vals["csm.alloc_bytes_per_cmd"] = float64(r.memBytes) / cmds
	vals["csm.faulty_detected_per_round"] = float64(c.faultyDetected) / rounds
	vals["csm.ticks_per_round"] = float64(c.ticks) / rounds
	vals["csm.skipped_rounds"] = float64(c.skipped)
	vals["csm.peak_rss_mb"] = peakRSSMB()
	vals["ingress.overhead_us"] = us(batchTime - time.Duration(w.batch)*roundTime)
	vals["field.ops_per_cmd_per_node"] = float64(c.fieldOps) / cmds / float64(w.n)

	vals["transport.ticks_per_cmd"] = float64(c.ticks) / cmds
	vals["transport.step_wait_us_per_cmd"] = us(c.link0.stepWait) / cmds
	vals["transport.send_us_per_cmd"] = us(c.link0.send) / cmds
	vals["transport.forgeries_dropped"] = float64(c.forgeries)
	if w.tcp {
		vals["transport.msgs_per_cmd"] = float64(c.link.msgs) / cmds
		vals["transport.bytes_per_cmd"] = float64(c.link.bytes) / cmds
	}
	vals["wal.records_per_cmd"], vals["wal.bytes_per_cmd"] = 0, 0
	recordsPerRound := 0.0
	if c.walRounds > 0 {
		recordsPerRound = float64(c.walRecords) / float64(c.walRounds)
		vals["wal.records_per_cmd"] = recordsPerRound / float64(w.k)
		vals["wal.bytes_per_cmd"] = float64(c.walBytes) / float64(c.walRounds*w.k)
	}

	vals["client.samples"] = float64(len(measured))
	vals["client.commit_p90_ms"] = percentile(lat, 90)
	vals["client.commit_p99_ms"] = percentile(lat, 99)
	vals["client.commit_max_ms"] = slices.Max(lat)
	vals["trace.overhead_frac"] = 1 - r.e2e.cmdsPerS/base.e2e.cmdsPerS

	// Coverage: the layers' measured and replayed times, multiplied by
	// how often one batch calls them, over the batch's measured time.
	var explained time.Duration
	b := time.Duration(w.batch)
	if w.tcp {
		// Node 0's link calls are timed in place; the coding work around
		// them is one row encode for the commands and one for the next
		// state (1/N of a full encode each), one transition and one
		// decode per round, and the WAL appends.
		batches := time.Duration(len(r.samples))
		l := c.link0
		explained = (l.stepWait+l.send+l.sign+l.verify)/batches +
			b*(2*lt.encode/time.Duration(w.n)+lt.apply+lt.decode) +
			time.Duration(float64(b)*recordsPerRound*float64(lt.walSync))
	} else {
		// Every one of the N simulated nodes decodes each round (the
		// full decoder, or the primed one on steps 2..B of a batch with
		// liars) and applies the transition, fanned out over the worker
		// pool; commands and next states are encoded for all N rows;
		// the network ticks.
		decodes := b * lt.decode
		if w.liars > 0 && w.batch > 1 {
			decodes = lt.decode + (b-1)*lt.primed
		}
		n := time.Duration(w.n)
		explained = n*(decodes+b*lt.apply)/time.Duration(fanout) + b*2*lt.encode +
			time.Duration(vals["csm.ticks_per_round"]*float64(b)*float64(lt.simTick))
	}
	vals["trace.coverage"] = float64(explained) / float64(batchTime)

	printRun(stdout, r)
	fmt.Fprintf(stdout, "# traced: %d spans kept in memory; untraced baseline %.1f cmds/s, traced %.1f cmds/s\n",
		len(tr.spans), base.e2e.cmdsPerS, r.e2e.cmdsPerS)
	printMetrics(stdout, perLayerDefs, vals)
	failed := base.failed + r.failed
	return result{Correct: failed == 0, Attempted: base.attempted + r.attempted, Failed: failed, Metrics: pack(perLayerDefs, vals)}, nil
}

func medianDuration(ds []time.Duration) time.Duration {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return time.Duration(median(vals))
}

// directSimRound times one round of a second, identical cluster driven
// by direct call (Cluster.Run on one batch, the call the ingress
// scheduler makes) and returns the per-round time.
func directSimRound(w workload, seed uint64, budget time.Duration) (time.Duration, error) {
	cluster, err := codedsm.Open(codedsm.NewGoldilocks(), codedsm.NewBank[uint64], simOptions(w)...)
	if err != nil {
		return 0, err
	}
	src := &commandSource{k: w.k, batch: w.batch, seed: seed}
	t, err := measure(budget, 1, func() error {
		results, err := cluster.Run(src.next())
		if err != nil {
			return err
		}
		for _, res := range results {
			if !res.Correct {
				return errors.New("direct round not correct")
			}
		}
		return nil
	})
	return t.per / time.Duration(w.batch), err
}
