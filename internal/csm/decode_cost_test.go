package csm

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/nodeapi"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// roundOps executes the workload one round at a time and returns the
// counted field operations of each round, requiring every round correct.
func roundOps(t *testing.T, c *Cluster[uint64], rounds int) []uint64 {
	t.Helper()
	ops := make([]uint64, rounds)
	for r, cmds := range RandomWorkload[uint64](gold, rounds, c.cfg.K, c.tr.CmdLen(), 7) {
		before := c.OpCounts().Total()
		res, err := c.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
		ops[r] = c.OpCounts().Total() - before
	}
	return ops
}

// TestRoundOpCountGuard is the exact-count guard on the decode path at the
// csmload sim-honest shape (N=64, K=22, b=21, Bank, B=1). Counts are exact
// on any host, so the ceilings are tight: before the verified-subset check
// an honest round cost 2.02 M operations (one 64-point interpolation and
// re-evaluation per node per component), and a single extra interpolation
// per decode (~7 k operations x 64 nodes x 2 components) breaks the
// honest ceiling. With liars, a steady-state round — suspects already
// learned — must stay within 1.5x of the honest round even at B=1.
func TestRoundOpCountGuard(t *testing.T) {
	const honestCeiling = 400_000
	honest := roundOps(t, newCluster(t, baseConfig(22, 64, 21)), 3)
	for r, ops := range honest {
		if ops > honestCeiling {
			t.Fatalf("honest round %d: %d counted field ops, ceiling %d", r, ops, honestCeiling)
		}
	}
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
	}
	byz := roundOps(t, newCluster(t, cfg), 4)
	steadyHonest, steadyByz := honest[len(honest)-1], byz[len(byz)-1]
	t.Logf("counted field ops per N=64 K=22 b=21 round: honest %d, 21 WrongResult nodes (steady state, B=1) %d; first Byzantine rounds %v",
		steadyHonest, steadyByz, byz[:2])
	if 2*steadyByz > 3*steadyHonest {
		t.Fatalf("steady-state Byzantine round costs %d ops, more than 1.5x the honest round's %d", steadyByz, steadyHonest)
	}
}

// TestIntermittentLiarForcesOneFallback: node 0 — inside the rows an
// unsuspecting check trusts — lies, sends one more bad result from its
// stale state after being released, then behaves for a round, over and
// over. Every other node falls back to the full decoder once (round 0),
// re-primes around node 0 once (round 1), and from then on keeps node 0
// suspected through its clean rounds: no later round costs more than the
// same round of a cluster where nobody ever lies.
func TestIntermittentLiarForcesOneFallback(t *testing.T) {
	const rounds, liar = 12, 0
	cfg := baseConfig(3, 16, 4)
	clean := roundOps(t, newCluster(t, cfg), rounds)
	cfg.ChurnFn = func(round int) []ChurnEvent {
		switch round % 3 {
		case 0:
			return []ChurnEvent{{Round: round, Node: liar, Op: ChurnCorrupt, Behavior: WrongResult}}
		case 1:
			return []ChurnEvent{{Round: round, Node: liar, Op: ChurnRelease}}
		}
		return nil
	}
	c := newCluster(t, cfg)
	lying := roundOps(t, c, rounds)
	if lying[0] <= clean[0] {
		t.Fatalf("round 0 cost %d ops, no more than the clean cluster's %d: the liar forced no fallback", lying[0], clean[0])
	}
	// Node 0 itself decodes its first stale round (1) with no suspects and
	// re-primes on round 2; everyone is in steady state from round 3.
	for r := 3; r < rounds; r++ {
		if lying[r] > clean[r] {
			t.Fatalf("round %d cost %d ops, the clean cluster's cost %d: a decode fell back again (per round: %v)", r, lying[r], clean[r], lying)
		}
	}
	for i, n := range c.nodes {
		if !slices.Equal(n.suspects, []int{liar}) {
			t.Fatalf("node %d suspects %v after the liar's clean round, want [%d]", i, n.suspects, liar)
		}
	}
}

// tickLink counts the lock-step ticks its node spends.
type tickLink struct {
	transport.Link
	ticks int
}

func (l *tickLink) Step() ([]transport.Message, error) {
	l.ticks++
	return l.Link.Step()
}

// processRoundCounts runs the consensus fixture (N=4, K=2, d=1, b=1) as
// four NodeProcess over local links, every node on its own counting
// field, one round per batch. It returns node 0's counted field
// operations and lock-step ticks per round, the WAL records node 0 wrote
// (zero without durability), and every node's run digest.
func processRoundCounts(t *testing.T, kind ConsensusKind, durable bool, workload [][][]uint64) (ops []uint64, ticks []int, walRecords int, digests []string) {
	t.Helper()
	net, err := transport.New(transport.Config{N: consN, Mode: transport.Sync, Seed: consSeed})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	dirs := make([]string, consN)
	counters := make([]*field.Counting[uint64], consN)
	tls := make([]*tickLink, consN)
	procs := make([]*NodeProcess[uint64], consN)
	for i, l := range links {
		counters[i] = field.NewCounting[uint64](gold)
		tls[i] = &tickLink{Link: l}
		cfg := RemoteConfig[uint64]{
			BaseField:     counters[i],
			NewTransition: consTransition,
			K:             consK,
			MaxFaults:     consFaults,
			Consensus:     kind,
		}
		if durable {
			dirs[i] = filepath.Join(base, strconv.Itoa(i))
			cfg.Durability = &DurabilityConfig{Dir: dirs[i]}
		}
		if procs[i], err = NewNodeProcess(cfg, tls[i]); err != nil {
			t.Fatal(err)
		}
		counters[i].Reset() // encoding the initial share is set-up
	}
	ops = make([]uint64, len(workload))
	ticks = make([]int, len(workload))
	errs := make([]error, consN)
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *NodeProcess[uint64]) {
			defer wg.Done()
			if kind == Oracle && !p.IsSequencer() {
				_, errs[i] = p.Follow()
				return
			}
			for r := range workload {
				opsBefore, ticksBefore := counters[i].Counts().Total(), tls[i].ticks
				if kind == Oracle {
					_, errs[i] = p.LeadBatch(workload[r : r+1])
				} else {
					_, errs[i] = p.RunWorkload(workload[r:r+1], 1)
				}
				if errs[i] != nil {
					_ = tls[i].Close() // unblock the peers
					return
				}
				if i == 0 {
					ops[r] = counters[i].Counts().Total() - opsBefore
					ticks[r] = tls[i].ticks - ticksBefore
				}
			}
			if kind == Oracle {
				errs[i] = p.Stop()
			}
		}(i, p)
	}
	wg.Wait()
	digests = make([]string, consN)
	for i, p := range procs {
		if errs[i] != nil {
			t.Fatalf("%v node %d: %v", kind, i, errs[i])
		}
		digests[i] = p.DigestSum()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if durable {
		seg, err := os.Open(filepath.Join(dirs[0], wal.SegmentName(0)))
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		if _, err := wal.Scan(seg, func(wal.Record) error { walRecords++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	return ops, ticks, walRecords, digests
}

// TestProcessRoundCountGuard is TestRoundOpCountGuard's counterpart for
// the deployed engine: node 0's counted field operations, lock-step ticks
// and WAL records per round are exact on any host, so they are pinned
// with zero tolerance — under the trusted sequencer, and under PBFT with
// the WAL on — next to the digests every node must share with
// Cluster.Run.
func TestProcessRoundCountGuard(t *testing.T) {
	workload := RandomWorkload[uint64](gold, 6, consK, 1, consSeed)
	want := nodeapi.NewDigest()
	for r, outs := range consOracleOutputs(t, workload) {
		want.AddRound(r, outs)
	}
	for _, tc := range []struct {
		kind       ConsensusKind
		durable    bool
		ops        []uint64
		ticks      []int
		walRecords int
	}{
		{kind: Oracle, ops: []uint64{304, 48, 48, 48, 48, 48}, ticks: []int{2, 2, 2, 2, 2, 2}},
		{kind: PBFT, durable: true, ops: []uint64{304, 48, 48, 48, 48, 48}, ticks: []int{4, 4, 4, 4, 4, 4}, walRecords: 12},
	} {
		ops, ticks, walRecords, digests := processRoundCounts(t, tc.kind, tc.durable, workload)
		for i, d := range digests {
			if d != want.Sum() {
				t.Errorf("%v node %d digest %s, Cluster.Run's %s", tc.kind, i, d, want.Sum())
			}
		}
		if !slices.Equal(ops, tc.ops) || !slices.Equal(ticks, tc.ticks) || walRecords != tc.walRecords {
			t.Errorf("%v: node 0 per round: field ops %v ticks %v, %d WAL records; pinned %v %v, %d",
				tc.kind, ops, ticks, walRecords, tc.ops, tc.ticks, tc.walRecords)
		}
	}
}
