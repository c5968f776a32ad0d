package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"codedsm"
	"codedsm/internal/consensus"
	"codedsm/internal/consensus/pbft"
	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/rs"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// The second instrument: where a layer is not an injected interface the
// benchmark cannot interpose on it, so it replays the layer's public
// function standalone, with the sizes and fault count the workload
// produces. Coding layers replay at the workload's own (N, K, liars);
// the deployed-only layers (PBFT over links, the TCP barrier, the WAL)
// always replay at the deployed shape, the only one that uses them.

type memCounts struct{ allocs, bytes uint64 }

func readMem() memCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounts{allocs: m.Mallocs, bytes: m.TotalAlloc}
}

// timing is one replayed call: its median duration and mean allocations.
type timing struct {
	per    time.Duration
	allocs float64
}

// measure calls fn in groups of inner until budget has passed (at least
// three groups) and returns the median per-call time over the groups.
func measure(budget time.Duration, inner int, fn func() error) (timing, error) {
	return measureFanout(budget, 1, inner, func(int) error { return fn() })
}

// measureFanout is measure with the calls of a group made by workers
// goroutines at once, inner each, the way the engine's worker pool fans
// per-node work out: the per-call time is the group's wall clock over
// inner, so work shared between the callers (a contended counter, a
// saturated core) shows as a slower call. fn receives the worker's index.
func measureFanout(budget time.Duration, workers, inner int, fn func(worker int) error) (timing, error) {
	var groups []float64
	calls := 0
	errs := make([]error, workers)
	mem0 := readMem()
	deadline := time.Now().Add(budget)
	for len(groups) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < inner && errs[w] == nil; i++ {
					errs[w] = fn(w)
				}
			}()
		}
		for i := 0; i < inner && errs[0] == nil; i++ {
			errs[0] = fn(0)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return timing{}, err
		}
		groups = append(groups, float64(time.Since(start))/float64(inner))
		calls += inner * workers
	}
	mem1 := readMem()
	return timing{per: time.Duration(median(groups)), allocs: float64(mem1.allocs-mem0.allocs) / float64(calls)}, nil
}

// deployedN and deployedFaults are the shape of the tcp-* workloads.
const (
	deployedN      = 4
	deployedFaults = 1
)

// layerTimes are the replayed costs coverage is summed from.
type layerTimes struct {
	encode, decode, primed, apply, simTick, walSync time.Duration
}

// replayLayers measures every replayed per-layer metric for w, giving
// each replay the same slice of time. fanout is how many workers the workload's engine spreads per-node work
// over (the Cluster's effective Parallelism; 1 for a NodeProcess).
func replayLayers(w workload, fanout int, each time.Duration, vals map[string]float64) (layerTimes, error) {
	var lt layerTimes
	// The simulated Cluster computes over the op-counting decorator
	// around the field (that is how it reports the paper's 1/λ), the
	// deployed NodeProcess over the bare field: replay over the same.
	var gold field.Field[uint64] = field.NewGoldilocks()
	if !w.tcp {
		gold = field.NewCounting(gold)
	}
	rng := rand.New(rand.NewPCG(clusterSeed, uint64(w.n)))
	ring := poly.NewRing(gold)
	bulk := ring.Bulk()

	// field: the two kernels the encode and decode inner loops are made of.
	const vecLen = 1024
	a, b, dst := field.RandVec(gold, rng, vecLen), field.RandVec(gold, rng, vecLen), make([]uint64, vecLen)
	t, err := measure(each, 64, func() error { bulk.MulVec(dst, a, b); return nil })
	if err != nil {
		return lt, err
	}
	vals["field.mulvec_ns_per_elem"] = float64(t.per) / vecLen
	c := gold.Rand(rng)
	if t, err = measure(each, 64, func() error { bulk.ScaleAccVec(dst, c, a); return nil }); err != nil {
		return lt, err
	}
	vals["field.scaleacc_ns_per_elem"] = float64(t.per) / vecLen

	code, err := lcc.New(ring, w.k, w.n)
	if err != nil {
		return lt, err
	}
	tr, err := codedsm.NewBank(gold)
	if err != nil {
		return lt, err
	}
	dim := code.ResultDim(tr.Degree())

	// poly: what the decoder does per word — interpolate through the N
	// code points, evaluate a degree-(dim-1) polynomial back at them.
	tree := poly.NewSubproductTree(ring, code.Alphas())
	ys := field.RandVec(gold, rng, w.n)
	if t, err = measure(each, 4, func() error { _, err := tree.Interpolate(ys); return err }); err != nil {
		return lt, err
	}
	vals["poly.interpolate_us"] = us(t.per)
	msg := poly.Poly[uint64](field.RandVec(gold, rng, dim))
	if t, err = measure(each, 4, func() error { _, err := tree.EvalMany(msg); return err }); err != nil {
		return lt, err
	}
	vals["poly.evalmany_us"] = us(t.per)

	// rs: one word, corrupted at as many coordinates as the workload has
	// liars.
	liars := ints.SortedMapKeys(w.liarSet())
	rsCode, err := rs.NewCode(ring, code.Alphas(), dim)
	if err != nil {
		return lt, err
	}
	word, err := rsCode.Encode(msg)
	if err != nil {
		return lt, err
	}
	for _, i := range liars {
		word[i] = gold.Add(word[i], gold.One())
	}
	if t, err = measure(each, 2, func() error { _, err := rsCode.Decode(word); return err }); err != nil {
		return lt, err
	}
	vals["rs.decode_us"], vals["rs.decode_allocs"] = us(t.per), t.allocs

	// lcc and sm: one round's coding work on real coded states and
	// commands, with the liars' results corrupted.
	states := make([][]uint64, w.k)
	cmds := make([][]uint64, w.k)
	for m := range states {
		states[m] = field.RandVec(gold, rng, tr.StateLen())
		cmds[m] = field.RandVec(gold, rng, tr.CmdLen())
	}
	codedStates, err := code.EncodeVectors(states)
	if err != nil {
		return lt, err
	}
	codedCmds, err := code.EncodeVectors(cmds)
	if err != nil {
		return lt, err
	}
	if t, err = measure(each, 2, func() error { _, err := code.EncodeVectors(cmds); return err }); err != nil {
		return lt, err
	}
	vals["lcc.encode_us"], lt.encode = us(t.per), t.per
	if t, err = measure(each, 1000, func() error { _, err := tr.ApplyResult(codedStates[0], codedCmds[0]); return err }); err != nil {
		return lt, err
	}
	vals["sm.apply_us"], lt.apply = us(t.per), t.per
	results := make([][]uint64, w.n)
	for i := range results {
		if results[i], err = tr.ApplyResult(codedStates[i], codedCmds[i]); err != nil {
			return lt, err
		}
	}
	for _, i := range liars {
		results[i][0] = gold.Add(results[i][0], gold.One())
	}
	// The N nodes' decodes are what the engine fans out over its worker
	// pool, all over the one field instance: replay them the same way.
	if t, err = measureFanout(each, fanout, 2, func(int) error { _, err := code.DecodeOutputs(results, tr.Degree()); return err }); err != nil {
		return lt, err
	}
	vals["lcc.decode_us"], vals["lcc.decode_allocs"], lt.decode = us(t.per), t.allocs, t.per
	// A Primed belongs to one decoding node: one per worker.
	primed := make([]*lcc.Primed[uint64], fanout)
	for i := range primed {
		if primed[i], err = code.NewPrimed(nil, liars, tr.Degree(), w.faults); err != nil {
			return lt, err
		}
		if primed[i] == nil {
			return lt, errors.New("lcc.NewPrimed: the workload's shape is ineligible for the primed path")
		}
	}
	var hits, calls atomic.Int64
	t, err = measureFanout(each, fanout, 2, func(worker int) error {
		_, ok, err := primed[worker].Decode(results, 1)
		calls.Add(1)
		if ok {
			hits.Add(1)
		}
		return err
	})
	if err != nil {
		return lt, err
	}
	vals["lcc.primed_decode_us"], lt.primed = us(t.per), t.per
	vals["lcc.primed_hit_frac"] = float64(hits.Load()) / float64(calls.Load())

	// transport, simulated: one lock-step tick in which every node
	// broadcasts a result-sized message, at the workload's N.
	payload := make([]byte, 8+8*tr.ResultLen())
	simNet, err := transport.New(transport.Config{N: w.n, Mode: transport.Sync, Seed: clusterSeed})
	if err != nil {
		return lt, err
	}
	eps := make([]*transport.Endpoint, w.n)
	for i := range eps {
		if eps[i], err = simNet.Endpoint(transport.NodeID(i)); err != nil {
			return lt, err
		}
	}
	t, err = measure(each, 1, func() error {
		for _, ep := range eps {
			if err := ep.Broadcast("replay", payload); err != nil {
				return err
			}
		}
		simNet.Step()
		for _, ep := range eps {
			ep.Receive()
		}
		return nil
	})
	if err != nil {
		return lt, err
	}
	vals["transport.sim_tick_us"], lt.simTick = us(t.per), t.per
	if !w.tcp {
		// The simulated network is private to Cluster: there is no Link
		// to interpose on, so its traffic is taken from the replay.
		st := simNet.Stats()
		ticks := float64(simNet.Round())
		vals["transport.msgs_per_cmd"] = float64(st.MessagesDelivered) / ticks / float64(w.k)
		vals["transport.bytes_per_cmd"] = float64(st.BytesDelivered) / ticks / float64(w.k)
	}

	if err := replayDeployed(w, each, payload, vals); err != nil {
		return lt, err
	}
	return lt, replayWAL(w, each, vals, &lt)
}

// replayDeployed measures the layers only a deployment has: one PBFT
// instance over local links and over a loopback TCP mesh, and one
// barrier tick of that mesh.
func replayDeployed(w workload, each time.Duration, resultPayload []byte, vals map[string]float64) error {
	// A proposal the size of the workload's batch (the product's gob
	// batchMsg is private; only its size matters to consensus).
	proposal := make([]byte, 96+10*w.cmdsPerBatch())
	slot := uint64(0)
	pbftNodes := func(tp func(i int) (consensus.Transport, error)) ([]consensus.Node, error) {
		slot++
		nodes := make([]consensus.Node, deployedN)
		for i := range nodes {
			t, err := tp(i)
			if err != nil {
				return nil, err
			}
			if nodes[i], err = pbft.New(pbft.Config{Transport: t, Slot: slot, MaxFaults: deployedFaults, Value: proposal}); err != nil {
				return nil, err
			}
		}
		return nodes, nil
	}

	simNet, err := transport.New(transport.Config{N: deployedN, Mode: transport.Sync, Seed: clusterSeed})
	if err != nil {
		return err
	}
	all := []int{0, 1, 2, 3}
	instances := 0
	t, err := measure(each, 1, func() error {
		nodes, err := pbftNodes(func(i int) (consensus.Transport, error) {
			return consensus.NewNetTransport(simNet, transport.NodeID(i))
		})
		if err != nil {
			return err
		}
		instances++
		return consensus.Run(simNet, nodes, all, 50)
	})
	if err != nil {
		return err
	}
	st := simNet.Stats()
	vals["consensus.pbft_local_us"] = us(t.per)
	vals["consensus.pbft_ticks"] = float64(simNet.Round()) / float64(instances)
	vals["consensus.pbft_msgs"] = float64(st.MessagesDelivered) / float64(instances)
	vals["consensus.pbft_bytes"] = float64(st.BytesDelivered) / float64(instances)

	links, err := dialMesh(deployedN, deployedN-1-deployedFaults)
	if err != nil {
		return err
	}
	defer closeLinks(links)
	// onEveryLink runs fn for each node concurrently, as the N processes
	// of a deployment would.
	onEveryLink := func(fn func(l *transport.TCP) error) error {
		errs := make([]error, len(links))
		var wg sync.WaitGroup
		for i, l := range links {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = fn(l)
			}()
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	t, err = measure(each, 1, func() error {
		nodes, err := pbftNodes(func(i int) (consensus.Transport, error) { return links[i], nil })
		if err != nil {
			return err
		}
		return onEveryLink(func(l *transport.TCP) error {
			_, err := consensus.RunLink(l, nodes[l.Self()], 50)
			return err
		})
	})
	if err != nil {
		return err
	}
	vals["consensus.pbft_tcp_us"] = us(t.per)

	const ticksPerGroup = 32
	t, err = measure(each, 1, func() error {
		return onEveryLink(func(l *transport.TCP) error {
			for i := 0; i < ticksPerGroup; i++ {
				if err := l.Broadcast("replay", resultPayload); err != nil {
					return err
				}
				if _, err := l.Step(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	vals["transport.tcp_tick_us"] = us(t.per / ticksPerGroup)
	return nil
}

// replayWAL measures one append under each sync policy and one snapshot
// rotation, at the size of the deployed node's per-round record (its
// coded share, the marshaled digest state and K outputs).
func replayWAL(w workload, each time.Duration, vals map[string]float64, lt *layerTimes) (err error) {
	dir, err := scratchDir("wal-replay")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	record := make([]byte, 160+8*w.k)
	appendTime := func(name string, policy wal.SyncPolicy) (time.Duration, error) {
		log, _, err := wal.Open(filepath.Join(dir, name), policy)
		if err != nil {
			return 0, err
		}
		t, err := measure(each, 1, func() error { return log.Append(2, record) })
		return t.per, errors.Join(err, log.Close())
	}
	if lt.walSync, err = appendTime("sync.log", wal.SyncAlways); err != nil {
		return fmt.Errorf("wal append (SyncAlways): %w", err)
	}
	vals["wal.append_sync_us"] = us(lt.walSync)
	nosync, err := appendTime("nosync.log", wal.SyncNever)
	if err != nil {
		return fmt.Errorf("wal append (SyncNever): %w", err)
	}
	vals["wal.append_nosync_us"] = us(nosync)
	seq := uint64(0)
	t, err := measure(each, 1, func() error { seq++; return wal.WriteSnapshot(dir, seq, record) })
	if err != nil {
		return fmt.Errorf("wal snapshot: %w", err)
	}
	vals["wal.snapshot_us"] = us(t.per)
	return nil
}
