package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"codedsm"
)

// simEngine drives the simulated Cluster through its serving front:
// codedsm.Open, Cluster.Open, Client.Submit, Future.Wait/Round.
type simEngine struct {
	w       workload
	tr      *tracer
	cluster *codedsm.Cluster[uint64]
	client  *codedsm.Client[uint64]
	ops0    uint64
	c       engineCounters
}

// simOptions is the workload's cluster configuration. Product defaults
// are kept wherever a knob exists (Parallelism unset): the benchmark
// measures what ships.
func simOptions(w workload) []codedsm.Option {
	opts := []codedsm.Option{
		codedsm.WithNodes(w.n), codedsm.WithMachines(w.k), codedsm.WithFaults(w.faults),
		codedsm.WithConsensus(codedsm.OracleConsensus), codedsm.WithSeed(clusterSeed),
		codedsm.WithByzantine(w.liarSet()),
	}
	if w.batch > 1 {
		opts = append(opts, codedsm.WithBatching(w.batch))
	}
	if w.pipeline > 0 {
		opts = append(opts, codedsm.WithPipeline(w.pipeline))
	}
	return opts
}

func openSim(w workload, tr *tracer) (engine, error) {
	cluster, err := codedsm.Open(codedsm.NewGoldilocks(), codedsm.NewBank[uint64], simOptions(w)...)
	if err != nil {
		return nil, err
	}
	client, err := cluster.Open(codedsm.WithDeterministicAdmission())
	if err != nil {
		return nil, err
	}
	e := &simEngine{w: w, tr: tr, cluster: cluster, client: client, ops0: cluster.OpCounts().Total()}
	e.c.parallelism = cluster.Parallelism()
	return e, nil
}

func (e *simEngine) runBatch(id, root int, cmds [][][]uint64) ([][][]uint64, error) {
	ctx := context.Background()
	futs := make([][]*codedsm.Future[uint64], len(cmds))
	submitStart := time.Now()
	for j, round := range cmds {
		futs[j] = make([]*codedsm.Future[uint64], len(round))
		for m, cmd := range round {
			fut, err := e.client.Submit(ctx, m, cmd)
			if err != nil {
				return nil, fmt.Errorf("submit round %d machine %d: %w", j, m, err)
			}
			futs[j][m] = fut
		}
	}
	waitStart := time.Now()
	e.tr.record("submit", "ingress", id, root, -1, submitStart, waitStart)
	out := make([][][]uint64, len(cmds))
	for j := range futs {
		out[j] = make([][]uint64, len(futs[j]))
		for m, fut := range futs[j] {
			// A failed future leaves out[j][m] nil: the command counts
			// as failed, the run goes on.
			if o, err := fut.Wait(ctx); err == nil {
				out[j][m] = o
			}
		}
		// Every future of a round carries the same report.
		res, _ := futs[j][0].Round(ctx)
		e.c.rounds++
		if res == nil {
			continue
		}
		e.c.faultyDetected += len(res.FaultyDetected)
		e.c.ticks += res.Ticks
		if res.Skipped {
			e.c.skipped++
		}
		if !res.Correct {
			out[j] = make([][]uint64, len(futs[j]))
		}
	}
	e.tr.record("wait", "csm", id, root, -1, waitStart, time.Now())
	return out, nil
}

func (e *simEngine) finish(o *oracle) error {
	if err := e.client.Close(); err != nil {
		return fmt.Errorf("closing client: %w", err)
	}
	e.c.fieldOps = e.cluster.OpCounts().Total() - e.ops0
	want := o.states()
	for m := range want {
		got, err := codedsm.DecodeMachineState(e.cluster, m)
		if err != nil {
			return fmt.Errorf("decoding machine %d: %w", m, err)
		}
		if !slices.Equal(got, want[m]) {
			return fmt.Errorf("machine %d: final state %v differs from the uncoded replay's %v", m, got, want[m])
		}
	}
	return nil
}

func (e *simEngine) counters() engineCounters { return e.c }
