package csm

import (
	"os"
	"path/filepath"
	"runtime"
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
// on any host, so every round is pinned. Honest: round 0 builds the shared
// verified-subset check and decodes with it exactly; round 1, each node's
// second decode on that check, forms its randomized rule (42 × 22
// multiply-adds per node) and uses it; from round 2 each component costs
// two dot products and the K outputs' prediction (144 128). 21 liars:
// rounds 0 and 1 pay the first detection's full decode and the exact
// re-primed check, round 2 forms the rule, and the steady round predicts
// only the 21 suspected rows one by one (172 142). While every rest row
// was predicted one by one the steady rounds cost 358 912 and 242 404.
// Round 0 of the 21-liar run cost 2 114 802 while the full decoder re-ran
// the refused verified-subset check before Gao. Before the verified-subset
// check an honest round cost 2.02 M operations (one 64-point
// interpolation and re-evaluation per node per component). Round 1 of the
// 21-liar run, where every honest node first meets the liars, cost
// 2 524 548 while the full decoder interpolated and re-evaluated on the
// subproduct tree and carried the EEA's unused cofactor u. A kernel change
// that only regroups the same arithmetic — a K-term linear combination
// charged in one call instead of K — must leave every figure where it is.
func TestRoundOpCountGuard(t *testing.T) {
	pinnedHonest := []uint64{369_908, 262_400, 144_128}
	pinnedByz := []uint64{1_996_466, 715_232, 211_874, 172_142}
	honest := roundOps(t, newCluster(t, baseConfig(22, 64, 21)), 3)
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
	}
	byz := roundOps(t, newCluster(t, cfg), 4)
	t.Logf("counted field ops per N=64 K=22 b=21 round: honest %d, 21 WrongResult nodes (steady state, B=1) %d; honest rounds %v, Byzantine rounds %v",
		honest[len(honest)-1], byz[len(byz)-1], honest, byz)
	if !slices.Equal(honest, pinnedHonest) {
		t.Errorf("honest rounds: %v counted field ops, pinned %v", honest, pinnedHonest)
	}
	if !slices.Equal(byz, pinnedByz) {
		t.Errorf("21 WrongResult rounds: %v counted field ops, pinned %v", byz, pinnedByz)
	}
}

// TestErasureRoundOpCountGuard pins, exactly, the rounds of
// TestRoundOpCountGuard's shape in which 3 nodes have crashed and 18 send
// wrong results: every node decodes the 61 results it received, so its
// first full decode runs on an rs Subcode — the erasure layout — and not
// on the full-length code. Round 0 cost 3 875 801 before the EEA stopped
// forming its unused cofactor u (−84 710) and the full-length result code,
// which this round builds but does not decode on, gained its dense tables
// (+28 321), and 3 819 412 while the full decoder built and ran the
// erasure layout's verified-subset check a second time after the primed
// one had refused. Round 2, which forms each node's randomized rule, cost
// 231 130 while every rest row was predicted one by one.
func TestErasureRoundOpCountGuard(t *testing.T) {
	pinned := []uint64{3_253_532, 684_221, 200_600}
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
		if i < 3 {
			cfg.Byzantine[(i*5+2)%64] = Crashed
		}
	}
	ops := roundOps(t, newCluster(t, cfg), 3)
	if !slices.Equal(ops, pinned) {
		t.Errorf("3 Crashed + 18 WrongResult rounds: %v counted field ops, pinned %v", ops, pinned)
	}
}

// TestCrashedBeyondBudgetRoundOpCountGuard pins, exactly, the rounds of
// TestRoundOpCountGuard's shape in which 22 nodes — one more than b — have
// crashed and nobody lies: every node decodes the 42 results it received,
// an erasure layout whose radius is 10 < b. A node primes its check with
// only as many spare unsuspected rows as that radius, so round 0 builds
// the check and later rounds reuse it, round 1 forming the randomized
// rule. While priming asked for b spare rows the layout was ineligible and
// every round cost 476 532: the full decoder built a check of its own each
// time. Rounds 1 and 2 cost 156 072 each while every rest row was
// predicted one by one.
func TestCrashedBeyondBudgetRoundOpCountGuard(t *testing.T) {
	pinned := []uint64{476_532, 127_848, 90_888}
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 22; i++ {
		cfg.Byzantine[(i*5+2)%64] = Crashed
	}
	ops := roundOps(t, newCluster(t, cfg), 3)
	if !slices.Equal(ops, pinned) {
		t.Errorf("22 Crashed rounds: %v counted field ops, pinned %v", ops, pinned)
	}
}

// TestRoundAllocGuard caps the heap allocations of one honest round at
// TestRoundOpCountGuard's shape, on one worker so the count is the
// engine's and not the fan-out's, and the heap bytes it allocates on the
// default fan-out, the engine csmload runs. A round cost 7 189
// allocations while the network queued one Message per recipient,
// 6 730 (711 KB) while Step still copied every copy into per-node inboxes
// and the client tally keyed two maps per machine by wire-byte strings,
// and 5 299 (291 KB) while every node parsed each of the N(N-1) results
// into a fresh slice and every broadcast carried its own recipient list.
// With results parsed in place into each node's receive rows it costs
// 1 075 allocations and 121 KB. Each ceiling sits within 10 % above
// today's figure. The race detector's own allocations are added on top
// (raceHeapSlack).
func TestRoundAllocGuard(t *testing.T) {
	const allocCeiling, byteCeiling = 1_180, 132_000
	allocs := testing.AllocsPerRun(5, honestRounds(t, 1))
	bytes := bytesPerRun(5, honestRounds(t, 0))
	t.Logf("per honest N=64 K=22 b=21 round: %.0f heap allocations (Parallelism 1), %d heap bytes (Parallelism 0)", allocs, bytes)
	if allocs > allocCeiling {
		t.Errorf("%.0f allocations per round, ceiling %d", allocs, allocCeiling)
	}
	if bytes > byteCeiling+raceHeapSlack {
		t.Errorf("%d heap bytes per round, ceiling %d", bytes, byteCeiling+raceHeapSlack)
	}
}

// TestByzantineBatchAllocGuard caps the heap allocations of one B=8
// batch at BenchmarkByzantineBatch's shape (21 WrongResult nodes,
// pipeline depth 4) once the first batch has learned the liars, on one
// worker so the count is the engine's and not the fan-out's. A batch
// cost 36 141 allocations while results were parsed into fresh slices;
// it costs 11 548. The ceiling sits within 10 % above today's figure.
func TestByzantineBatchAllocGuard(t *testing.T) {
	const allocCeiling = 12_700
	allocs := testing.AllocsPerRun(3, byzantineBatches(t, 1))
	t.Logf("per B=8 batch of 21-liar N=64 K=22 b=21 rounds: %.0f heap allocations (Parallelism 1)", allocs)
	if allocs > allocCeiling {
		t.Errorf("%.0f allocations per batch, ceiling %d", allocs, allocCeiling)
	}
}

// TestRoundTransmissionCount pins the simulated network's transmissions
// (Stats.Transmissions: Send and Broadcast calls) per honest round of
// TestRoundOpCountGuard's shape: one result broadcast per node, 64.
func TestRoundTransmissionCount(t *testing.T) {
	c := newCluster(t, baseConfig(22, 64, 21))
	for r, cmds := range RandomWorkload[uint64](gold, 3, c.cfg.K, c.tr.CmdLen(), 7) {
		before := c.net.Stats().Transmissions
		if _, err := c.ExecuteRound(cmds); err != nil {
			t.Fatal(err)
		}
		if got := c.net.Stats().Transmissions - before; got != 64 {
			t.Errorf("round %d: %d transmissions, pinned 64", r, got)
		}
	}
}

// honestRounds returns a function that executes the next honest round of
// TestRoundOpCountGuard's shape on a cluster with the given Parallelism,
// after one round that primes every node's decode.
func honestRounds(t *testing.T, parallelism int) func() {
	cfg := baseConfig(22, 64, 21)
	cfg.Parallelism = parallelism
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 16, cfg.K, c.tr.CmdLen(), 7)
	r := 0
	round := func() {
		if _, err := c.ExecuteRound(wl[r%len(wl)]); err != nil {
			t.Fatal(err)
		}
		r++
	}
	round()
	return round
}

// byzantineBatches returns a function that runs the next B=8 batch of
// BenchmarkByzantineBatch's shape on a cluster with the given
// Parallelism, after one batch that learns the liars and primes every
// node's decode.
func byzantineBatches(t *testing.T, parallelism int) func() {
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
	}
	cfg.BatchSize, cfg.Pipeline, cfg.Parallelism = 8, 4, parallelism
	c := newCluster(t, cfg)
	wl := RandomWorkload[uint64](gold, 4*cfg.BatchSize, cfg.K, c.tr.CmdLen(), 7)
	i := 0
	batch := func() {
		start := (i % 4) * cfg.BatchSize
		if _, err := c.Run(wl[start : start+cfg.BatchSize]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	batch()
	return batch
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by one call of f over runs calls, after one warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkHonestRound times one honest round at csmload's sim-honest
// shape (N=64, K=22, b=21, Bank, B=1) on the default fan-out, through
// ExecuteRound rather than the ingress, so a CPU profile of it
// (`make profile-round`) shows the round's own work: the sends, the
// network tick, the verified-subset decode and re-encode.
func BenchmarkHonestRound(b *testing.B) {
	c, err := New(baseConfig(22, 64, 21))
	if err != nil {
		b.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 16, c.cfg.K, c.tr.CmdLen(), 7)
	if _, err := c.ExecuteRound(wl[0]); err != nil { // primes every node's decode
		b.Fatal(err)
	}
	b.ReportAllocs()
	r := 1
	for b.Loop() {
		if _, err := c.ExecuteRound(wl[r%len(wl)]); err != nil {
			b.Fatal(err)
		}
		r++
	}
}

// BenchmarkByzantineBatch times one consensus batch at csmload's
// sim-byz-batched shape: N=64, K=22, b=21, csmload's 21 WrongResult nodes,
// B=8 rounds per batch, pipeline depth 4, default fan-out. An op is the
// whole batch: error correction on its first step, the primed decode on
// the other seven, and the pipelined client stage.
func BenchmarkByzantineBatch(b *testing.B) {
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
	}
	cfg.BatchSize, cfg.Pipeline = 8, 4
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 4*cfg.BatchSize, cfg.K, c.tr.CmdLen(), 7)
	batch := func(i int) {
		start := (i % 4) * cfg.BatchSize
		if _, err := c.Run(wl[start : start+cfg.BatchSize]); err != nil {
			b.Fatal(err)
		}
	}
	batch(0) // the first batch learns the liars and primes every node's decode
	b.ReportAllocs()
	i := 1
	for b.Loop() {
		batch(i)
		i++
	}
}

// BenchmarkByzantineSetup times what csmload's sim-byz-batched setup_s
// times: a new cluster of BenchmarkByzantineBatch's shape and its first
// B=8 batch, the one whose first step meets the 21 liars unsuspected and
// every honest node falls back to the full decoder.
func BenchmarkByzantineSetup(b *testing.B) {
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
	}
	cfg.BatchSize, cfg.Pipeline = 8, 4
	tr, err := bankFactory(gold)
	if err != nil {
		b.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, cfg.BatchSize, cfg.K, tr.CmdLen(), 7)
	b.ReportAllocs()
	for b.Loop() {
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(wl); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDelegatedRoundCountGuard pins the Section 6.2 round at the same
// shape as TestRoundOpCountGuard: the cluster's counted field operations
// and lock-step ticks per delegated round, exact on any host, honest and
// with that test's 21 WrongResult nodes (whose round-2 worker is one of
// them: it is caught and the round retried under the next worker). Each
// figure is logged as a fraction of the decentralised honest round. While
// the worker built its own Reed-Solomon code every round the rounds cost
// [136170 119676 93276] and [144942 133112 124304]; it now decodes on the
// result code the cluster builds at construction.
func TestDelegatedRoundCountGuard(t *testing.T) {
	const decentralised = 144_128 // TestRoundOpCountGuard's steady honest round
	liars := map[int]Behavior{}
	for i := 0; len(liars) < 21; i++ {
		liars[(i*5+2)%64] = WrongResult
	}
	for _, tc := range []struct {
		name   string
		byz    map[int]Behavior
		ops    []uint64
		ticks  []int
		faulty int
	}{
		{"honest", nil, []uint64{105226, 88732, 62332}, []int{4, 4, 4}, 0},
		{"21 WrongResult", liars, []uint64{111644, 99814, 91006}, []int{4, 4, 8}, 21},
	} {
		cfg := delegatedConfig(22, 64, 21)
		cfg.Byzantine = tc.byz
		c := newCluster(t, cfg)
		ops, ticks := make([]uint64, 3), make([]int, 3)
		for r, cmds := range RandomWorkload[uint64](gold, 3, 22, c.tr.CmdLen(), 7) {
			before := c.OpCounts().Total()
			res, err := c.ExecuteRound(cmds)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(res.FaultyDetected) != tc.faulty {
				t.Errorf("%s round %d: correct=%v, %d faulty detected, want %d", tc.name, r, res.Correct, len(res.FaultyDetected), tc.faulty)
			}
			ops[r], ticks[r] = c.OpCounts().Total()-before, res.Ticks
			t.Logf("%s round %d: %d counted field ops, %.2fx the decentralised round's %d", tc.name, r, ops[r], float64(ops[r])/decentralised, decentralised)
		}
		if !slices.Equal(ops, tc.ops) || !slices.Equal(ticks, tc.ticks) {
			t.Errorf("%s: per round field ops %v ticks %v; pinned %v %v", tc.name, ops, ticks, tc.ops, tc.ticks)
		}
	}
}

// TestIntermittentLiarForcesOneFallback: node 0 — inside the rows an
// unsuspecting check trusts — lies, sends one more bad result from its
// stale state after being released, then behaves for a round, over and
// over. Every other node falls back to the full decoder once (round 0),
// re-primes around node 0 once (round 1), and from then on keeps node 0
// suspected through its clean rounds: no decode runs the full decoder
// from round 3 on. The test counts the fallbacks themselves; comparing
// op totals with a clean cluster would also charge the suspected row's
// own prediction, which is not a fallback.
func TestIntermittentLiarForcesOneFallback(t *testing.T) {
	const rounds, liar = 12, 0
	// The 15 other nodes fall back in round 0; node 0 itself decodes its
	// first stale round (1) with no suspects and falls back, then
	// re-primes on round 2. Everyone is in steady state from round 3.
	pinned := []int{15, 1, 0}
	cfg := baseConfig(3, 16, 4)
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
	total := func() (sum int) {
		for _, n := range c.nodes {
			sum += n.fallbacks
		}
		return sum
	}
	fallbacks := make([]int, rounds)
	for r, cmds := range RandomWorkload[uint64](gold, rounds, c.cfg.K, c.tr.CmdLen(), 7) {
		before := total()
		res, err := c.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
		fallbacks[r] = total() - before
	}
	t.Logf("full-decoder fallbacks per round: %v", fallbacks)
	if !slices.Equal(fallbacks[:len(pinned)], pinned) {
		t.Errorf("rounds 0-%d: %v fallbacks, pinned %v", len(pinned)-1, fallbacks[:len(pinned)], pinned)
	}
	for r := len(pinned); r < rounds; r++ {
		if fallbacks[r] != 0 {
			t.Errorf("round %d: %d decodes fell back to the full decoder (per round: %v)", r, fallbacks[r], fallbacks)
		}
	}
	for i, n := range c.nodes {
		if !slices.Equal(n.suspects, []int{liar}) {
			t.Fatalf("node %d suspects %v after the liar's clean round, want [%d]", i, n.suspects, liar)
		}
	}
}

// pinnedKinds are the message kinds TestProcessRoundCountGuard counts:
// PBFT's three phases and the execution result.
var pinnedKinds = [4]string{"pbft-preprepare", "pbft-prepare", "pbft-commit", resultKind}

// ixCommit and ixResult index pbft-commit and csm-result in pinnedKinds.
const ixCommit, ixResult = 2, 3

// msgCounts is one node's traffic in pinnedKinds order.
type msgCounts struct{ sent, recv [4]int }

func (m msgCounts) minus(o msgCounts) msgCounts {
	for k := range pinnedKinds {
		m.sent[k] -= o.sent[k]
		m.recv[k] -= o.recv[k]
	}
	return m
}

// countLink counts the lock-step ticks its node spends and the messages
// of each pinned kind it broadcasts and receives (a NodeProcess only
// broadcasts).
type countLink struct {
	transport.Link
	ticks int
	msgs  msgCounts
}

func (l *countLink) Broadcast(kind string, payload []byte) error {
	if i := slices.Index(pinnedKinds[:], kind); i >= 0 {
		l.msgs.sent[i]++
	}
	return l.Link.Broadcast(kind, payload)
}

func (l *countLink) Step() ([]transport.Message, error) {
	l.ticks++
	msgs, err := l.Link.Step()
	for _, m := range msgs {
		if i := slices.Index(pinnedKinds[:], m.Kind); i >= 0 {
			l.msgs.recv[i]++
		}
	}
	return msgs, err
}

// processRun configures runProcesses.
type processRun struct {
	kind    ConsensusKind
	durable bool
	batch   int // rounds per batch; 0 means one
	// wrap decorates node i's link (nil: none); this is how a test plants
	// a Byzantine peer or forged traffic.
	wrap func(i int, l transport.Link) transport.Link
	// feed gives a node its own workload in place of the shared one.
	feed map[int][][][]uint64
}

// processCounts is what runProcesses observed per batch — on node 0, or
// on every node where indexed by node — and the finished processes.
type processCounts struct {
	ops        []uint64           // node 0's counted field operations
	ticks      [consN][]int       // lock-step ticks
	msgs       [consN][]msgCounts // pinned-kind traffic
	walRecords int                // records in node 0's WAL (zero without durability)
	procs      []*NodeProcess[uint64]
}

// runProcesses runs the consensus fixture (N=4, K=2, d=1, b=1) as four
// NodeProcess over local links, every node on its own counting field, and
// requires every node to finish the workload.
func runProcesses(t *testing.T, run processRun, workload [][][]uint64) processCounts {
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
	tls := make([]*countLink, consN)
	procs := make([]*NodeProcess[uint64], consN)
	for i, l := range links {
		if run.wrap != nil {
			l = run.wrap(i, l)
		}
		counters[i] = field.NewCounting[uint64](gold)
		tls[i] = &countLink{Link: l}
		cfg := RemoteConfig[uint64]{
			BaseField:     counters[i],
			NewTransition: consTransition,
			K:             consK,
			MaxFaults:     consFaults,
			Consensus:     run.kind,
		}
		if run.durable {
			dirs[i] = filepath.Join(base, strconv.Itoa(i))
			cfg.Durability = &DurabilityConfig{Dir: dirs[i]}
		}
		if procs[i], err = NewNodeProcess(cfg, tls[i]); err != nil {
			t.Fatal(err)
		}
		counters[i].Reset() // encoding the initial share is set-up
	}
	batch := max(run.batch, 1)
	var out processCounts
	errs := make([]error, consN)
	var wg sync.WaitGroup
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *NodeProcess[uint64]) {
			defer wg.Done()
			if run.kind == Oracle && !p.IsSequencer() {
				_, errs[i] = p.Follow()
				return
			}
			workload := workload
			if w, ok := run.feed[i]; ok {
				workload = w
			}
			for start := 0; start < len(workload); start += batch {
				rounds := workload[start:min(start+batch, len(workload))]
				opsBefore, ticksBefore, msgsBefore := counters[i].Counts().Total(), tls[i].ticks, tls[i].msgs
				if run.kind == Oracle {
					_, errs[i] = p.LeadBatch(rounds)
				} else {
					_, errs[i] = p.RunWorkload(rounds, batch)
				}
				if errs[i] != nil {
					_ = tls[i].Close() // unblock the peers
					return
				}
				if i == 0 {
					out.ops = append(out.ops, counters[i].Counts().Total()-opsBefore)
				}
				out.ticks[i] = append(out.ticks[i], tls[i].ticks-ticksBefore)
				out.msgs[i] = append(out.msgs[i], tls[i].msgs.minus(msgsBefore))
			}
			if run.kind == Oracle {
				errs[i] = p.Stop()
			}
		}(i, p)
	}
	wg.Wait()
	for i, p := range procs {
		if errs[i] != nil {
			t.Fatalf("%v node %d: %v", run.kind, i, errs[i])
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if run.durable {
		seg, err := os.Open(filepath.Join(dirs[0], wal.SegmentName(0)))
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		if _, err := wal.Scan(seg, func(wal.Record) error { out.walRecords++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	out.procs = procs
	return out
}

// consDigest is the run digest of Cluster.Run on the consensus fixture.
func consDigest(t *testing.T, workload [][][]uint64) string {
	t.Helper()
	d := nodeapi.NewDigest()
	for r, outs := range consOracleOutputs(t, workload) {
		d.AddRound(r, outs)
	}
	return d.Sum()
}

// TestProcessRoundCountGuard is TestRoundOpCountGuard's counterpart for
// the deployed engine: node 0's counted field operations, lock-step ticks,
// pinned-kind messages and WAL records per round are exact on any host,
// so they are pinned with zero tolerance — under the trusted sequencer,
// and under PBFT with the WAL on — next to the digests every node must
// share with Cluster.Run. Node 0 is the sequencer, and PBFT's view-0
// leader: every round it sends one message of each phase and receives
// the other three nodes' prepares, commits and results.
func TestProcessRoundCountGuard(t *testing.T) {
	workload := RandomWorkload[uint64](gold, 6, consK, 1, consSeed)
	want := consDigest(t, workload)
	for _, tc := range []struct {
		run        processRun
		ops        []uint64
		ticks      []int
		msgs       msgCounts // every round
		walRecords int
	}{
		{run: processRun{kind: Oracle}, ops: []uint64{304, 48, 48, 48, 48, 48}, ticks: []int{2, 2, 2, 2, 2, 2},
			msgs: msgCounts{sent: [4]int{0, 0, 0, 1}, recv: [4]int{0, 0, 0, 3}}},
		{run: processRun{kind: PBFT, durable: true}, ops: []uint64{304, 48, 48, 48, 48, 48}, ticks: []int{2, 2, 2, 2, 2, 2},
			msgs: msgCounts{sent: [4]int{1, 1, 1, 1}, recv: [4]int{0, 3, 3, 3}}, walRecords: 6},
	} {
		got := runProcesses(t, tc.run, workload)
		for i, p := range got.procs {
			if p.DigestSum() != want {
				t.Errorf("%v node %d digest %s, Cluster.Run's %s", tc.run.kind, i, p.DigestSum(), want)
			}
		}
		if !slices.Equal(got.ops, tc.ops) || !slices.Equal(got.ticks[0], tc.ticks) || got.walRecords != tc.walRecords {
			t.Errorf("%v: node 0 per round: field ops %v ticks %v, %d WAL records; pinned %v %v, %d",
				tc.run.kind, got.ops, got.ticks[0], got.walRecords, tc.ops, tc.ticks, tc.walRecords)
		}
		for r, m := range got.msgs[0] {
			if m != tc.msgs {
				t.Errorf("%v: node 0 round %d sent %v received %v of %v; pinned %v %v",
					tc.run.kind, r, m.sent, m.recv, pinnedKinds, tc.msgs.sent, tc.msgs.recv)
			}
		}
	}
}
