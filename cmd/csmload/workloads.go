package main

import (
	"fmt"

	"codedsm"
	"codedsm/internal/nodeapi"
)

// clusterSeed is fixed: -seed varies the commands, never the cluster's
// keys, code points or adversary draws.
const clusterSeed = 1711

// workload is one named load shape. Every workload runs the Bank machine
// (degree 1) over the Goldilocks field.
type workload struct {
	name, why string
	tcp       bool // deployed engine (NodeProcess over loopback TCP) instead of the simulated Cluster
	n, k      int  // nodes, machines
	faults    int  // provisioned fault budget b
	liars     int  // nodes that actually misbehave (WrongResult)
	batch     int  // B: rounds per consensus instance, and per latency sample
	pipeline  int  // sim: client-stage pipeline depth (0 off)
	pbft      bool // tcp: PBFT decides each batch (RunWorkload) instead of the oracle sequencer
	durable   bool // tcp: WAL on, wal.SyncAlways
}

var workloads = []workload{
	{
		name: "sim-honest",
		why:  "N=64 K=22 Cluster, b=21 provisioned, nobody lies, B=1: the common case; every node runs the full lcc/rs decode on 64 clean results",
		n:    64, k: 22, faults: 21, batch: 1,
	},
	{
		name: "sim-byz-batched",
		why:  "same cluster, 21 WrongResult nodes, batch 8, pipeline 4: error correction on step 1, lcc.Primed on steps 2-8, ingress batching",
		n:    64, k: 22, faults: 21, liars: 21, batch: 8, pipeline: 4,
	},
	{
		name: "tcp-oracle",
		why:  "4 NodeProcess over loopback TCP, oracle sequencer, no WAL, B=1: signing, framing and the DONE barrier are the whole cost",
		tcp:  true, n: 4, k: 2, faults: 1, batch: 1,
	},
	{
		name: "tcp-pbft-wal",
		why:  "same mesh, PBFT decides every batch, WAL with fsync per append, B=1: the headline deployed path; the gap to tcp-oracle is consensus plus wal",
		tcp:  true, n: 4, k: 2, faults: 1, batch: 1, pbft: true, durable: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// liarSet spreads the misbehaving nodes over the index space (the same
// stride the repo's scaling benchmarks use).
func (w workload) liarSet() map[int]codedsm.Behavior {
	byz := make(map[int]codedsm.Behavior, w.liars)
	for i := 0; len(byz) < w.liars; i++ {
		byz[(i*5+2)%w.n] = codedsm.WrongResult
	}
	return byz
}

func (w workload) cmdsPerBatch() int { return w.batch * w.k }

// oracle is the uncoded replay every workload is validated against: K
// plain sm.Machine instances fed the same seeded commands, independent
// of both engines. It also accumulates the canonical run digest the
// deployed nodes must reproduce.
type oracle struct {
	machines []*codedsm.Machine[uint64]
	digest   *nodeapi.Digest
	round    int
}

func newOracle(k int) (*oracle, error) {
	gold := codedsm.NewGoldilocks()
	tr, err := codedsm.NewBank[uint64](gold)
	if err != nil {
		return nil, err
	}
	o := &oracle{machines: make([]*codedsm.Machine[uint64], k), digest: nodeapi.NewDigest()}
	for i := range o.machines {
		if o.machines[i], err = codedsm.NewMachine(tr, make([]uint64, tr.StateLen())); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// step applies one round (one command per machine) and returns the
// expected outputs.
func (o *oracle) step(cmds [][]uint64) ([][]uint64, error) {
	out := make([][]uint64, len(cmds))
	for k, cmd := range cmds {
		var err error
		if out[k], err = o.machines[k].Step(cmd); err != nil {
			return nil, fmt.Errorf("oracle machine %d round %d: %w", k, o.round, err)
		}
	}
	o.digest.AddRound(o.round, out)
	o.round++
	return out, nil
}

func (o *oracle) states() [][]uint64 {
	out := make([][]uint64, len(o.machines))
	for k, m := range o.machines {
		out[k] = m.State()
	}
	return out
}

// commandSource yields the seeded workload one batch at a time, so a
// time-bound run needs no round count up front. Chunk c of the stream is
// codedsm.RandomWorkload under a seed derived from (-seed, c): the same
// -seed gives the same commands however long the run lasts.
type commandSource struct {
	k, batch int
	seed     uint64
	chunk    uint64
	buf      [][][]uint64
}

const chunkBatches = 256

func (s *commandSource) next() [][][]uint64 {
	if len(s.buf) == 0 {
		s.buf = codedsm.RandomWorkload[uint64](codedsm.NewGoldilocks(), chunkBatches*s.batch, s.k, 1, s.seed<<20+s.chunk)
		s.chunk++
	}
	b := s.buf[:s.batch]
	s.buf = s.buf[s.batch:]
	return b
}
