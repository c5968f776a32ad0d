package csm

import (
	"context"
	"slices"
	"sync"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// replayOutputs executes the workload on K uncoded machines of tr from
// all-zero states, the engines' default, and returns every round's
// outputs: the reference the held outputs are compared with.
func replayOutputs(t *testing.T, tr *sm.Transition[uint64], workload [][][]uint64) [][][]uint64 {
	t.Helper()
	machines := make([]*sm.Machine[uint64], len(workload[0]))
	for k := range machines {
		m, err := sm.NewMachine(tr, field.ZeroVec[uint64](gold, tr.StateLen()))
		if err != nil {
			t.Fatal(err)
		}
		machines[k] = m
	}
	out := make([][][]uint64, len(workload))
	for r, cmds := range workload {
		out[r] = make([][]uint64, len(machines))
		for k, m := range machines {
			o, err := m.Step(cmds[k])
			if err != nil {
				t.Fatal(err)
			}
			out[r][k] = o
		}
	}
	return out
}

// requireHeldOutputs compares outputs held since their round returned
// with the uncoded replay, element for element.
func requireHeldOutputs(t *testing.T, name string, got, want [][][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds of outputs, want %d", name, len(got), len(want))
	}
	for r := range want {
		for k := range want[r] {
			if !slices.Equal(got[r][k], want[r][k]) {
				t.Fatalf("%s: round %d machine %d output %v when the run ended, the replay's %v", name, r, k, got[r][k], want[r][k])
			}
		}
	}
}

// TestReturnedOutputsSurviveLaterRounds pins the engines' ownership rule:
// whatever a round hands out (RoundResult.Outputs, a future's value, a
// NodeProcess's outputs) belongs to the caller, however many rounds run
// after it. The engines reuse their per-node decode buffers from round to
// round; an output that still aliased one would be overwritten by a later
// round's decode. Every output is held until the run ends and then
// compared with the uncoded replay: one round at a time, pipelined with
// 21 liars, through Submit and Future, and as NodeProcess over local links.
func TestReturnedOutputsSurviveLaterRounds(t *testing.T) {
	const rounds = 64
	tr, err := sm.NewBank[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	outputsOf := func(results []*RoundResult[uint64]) [][][]uint64 {
		out := make([][][]uint64, len(results))
		for r, res := range results {
			out[r] = res.Outputs
		}
		return out
	}
	liars := func(cfg Config[uint64]) Config[uint64] {
		cfg.Byzantine = map[int]Behavior{}
		for i := 0; len(cfg.Byzantine) < 21; i++ {
			cfg.Byzantine[(i*5+2)%64] = WrongResult
		}
		return cfg
	}

	t.Run("sequential", func(t *testing.T) {
		c := newCluster(t, baseConfig(22, 64, 21))
		wl := RandomWorkload[uint64](gold, rounds, c.cfg.K, 1, 7)
		var results []*RoundResult[uint64]
		for _, cmds := range wl {
			res, err := c.ExecuteRound(cmds)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		requireHeldOutputs(t, "ExecuteRound", outputsOf(results), replayOutputs(t, tr, wl))
	})

	t.Run("pipelined", func(t *testing.T) {
		cfg := liars(baseConfig(22, 64, 21))
		cfg.Pipeline, cfg.BatchSize = 4, 8
		c := newCluster(t, cfg)
		wl := RandomWorkload[uint64](gold, rounds, cfg.K, 1, 7)
		var results []*RoundResult[uint64]
		for start := 0; start < rounds; start += cfg.BatchSize {
			res, err := c.Run(wl[start : start+cfg.BatchSize])
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res...)
		}
		requireHeldOutputs(t, "Run", outputsOf(results), replayOutputs(t, tr, wl))
	})

	t.Run("futures", func(t *testing.T) {
		cfg := liars(baseConfig(22, 64, 21))
		cfg.Pipeline, cfg.BatchSize = 4, 8
		c := newCluster(t, cfg)
		wl := RandomWorkload[uint64](gold, rounds, cfg.K, 1, 7)
		cl, err := c.Open(WithDeterministicAdmission())
		if err != nil {
			t.Fatal(err)
		}
		futs := submitAll(t, cl, wl)
		if err := cl.Close(); err != nil {
			t.Fatal(err)
		}
		values := make([][][]uint64, rounds)
		var reports [][][]uint64
		for r := range futs {
			values[r] = make([][]uint64, cfg.K)
			for k, fut := range futs[r] {
				if values[r][k], err = fut.Wait(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			res, err := futs[r][0].Round(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, res.Outputs)
		}
		want := replayOutputs(t, tr, wl)
		requireHeldOutputs(t, "Future.Wait", values, want)
		requireHeldOutputs(t, "Future.Round", reports, want)
	})

	t.Run("processes", func(t *testing.T) {
		wl := RandomWorkload[uint64](gold, rounds, remoteK, 1, remoteSeed)
		net, err := transport.New(transport.Config{N: remoteN, Mode: transport.Sync, Seed: remoteSeed})
		if err != nil {
			t.Fatal(err)
		}
		links, err := transport.NewLocalLinks(net)
		if err != nil {
			t.Fatal(err)
		}
		rtr, err := remoteTransition(gold)
		if err != nil {
			t.Fatal(err)
		}
		want := replayOutputs(t, rtr, wl)
		outs := make([][][][]uint64, remoteN)
		errs := make([]error, remoteN)
		var wg sync.WaitGroup
		for i, l := range links {
			wg.Add(1)
			go func(i int, l transport.Link) {
				defer wg.Done()
				p, err := NewNodeProcess(RemoteConfig[uint64]{
					BaseField: gold, NewTransition: remoteTransition, K: remoteK, MaxFaults: remoteFaults,
				}, l)
				if err != nil {
					errs[i] = err
					return
				}
				if p.IsSequencer() {
					outs[i], errs[i] = p.Lead(wl, 3)
				} else {
					outs[i], errs[i] = p.Follow()
				}
			}(i, l)
		}
		wg.Wait()
		for i := range outs {
			if errs[i] != nil {
				t.Fatalf("node %d: %v", i, errs[i])
			}
			requireHeldOutputs(t, "NodeProcess", outs[i], want)
		}
	})
}
