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
// two dot products, and the K outputs are the trusted systematic rows
// themselves (21 104). 21 liars: rounds 0 and 1 pay the first detection's
// full decode and the exact re-primed check, round 2 forms the rule, and
// the steady round predicts only the 21 suspected rows one by one, four
// of which (nodes 2, 7, 12, 17) are the outputs of their machines
// (89 202). A systematic node's unit row makes its command encode and
// state re-encode a copy; while they ran a K-term combination the rounds
// cost [245 454, 141 312, 23 040] and [1 952 350, 489 138, 130 518,
// 90 786]. While the K outputs were predicted from disjoint points the
// rounds cost [369 908, 262 400, 144 128] and [1 996 466, 715 232,
// 211 874, 172 142]; while every rest row was predicted one by one the
// steady rounds cost 358 912 and 242 404.
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
	pinnedHonest := []uint64{243_518, 139_376, 21_104}
	pinnedByz := []uint64{1_950_766, 487_554, 128_934, 89_202}
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
// 231 130 while every rest row was predicted one by one. While the K
// outputs were predicted from disjoint points the rounds cost
// [3 253 532, 684 221, 200 600], and [3 087 738, 488 958, 130 338]
// while a systematic node's encode and re-encode ran on its unit row.
func TestErasureRoundOpCountGuard(t *testing.T) {
	pinned := []uint64{3_086_286, 487_506, 128_886}
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
// predicted one by one, the rounds [476 532, 127 848, 90 888] while
// the K outputs were predicted from disjoint points, and [336 000,
// 77 280, 40 320] while a systematic node's encode and re-encode ran on
// its unit row.
func TestCrashedBeyondBudgetRoundOpCountGuard(t *testing.T) {
	pinned := []uint64{334_768, 76_048, 39_088}
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
// TestRoundOpCountGuard's shape, on one worker (testing.AllocsPerRun
// sets GOMAXPROCS to 1) so the count is the engine's and not the
// fan-out's, and the heap bytes it allocates on the test's GOMAXPROCS, the
// fan-out csmload runs. A round cost 7 189
// allocations while the network queued one Message per recipient,
// 6 730 (711 KB) while Step still copied every copy into per-node inboxes
// and the client tally keyed two maps per machine by wire-byte strings,
// and 5 299 (291 KB) while every node parsed each of the N(N-1) results
// into a fresh slice and every broadcast carried its own recipient list,
// and 1 075 (122 KB) while every node parsed each result in place into
// its receive rows through its own Deliveries closure and ingest's range
// body, and 883 (112 KB) once each envelope was parsed once per tick for
// all its recipients. With every node's apply, payload, received-row and
// decode buffers reused from round to round, a step's decode buffers
// recycled only after its client tally, it cost 82 allocations, and 79
// once pool.Run stopped wrapping each phase's function in a closure of its
// own: 64 were the network's copies of the broadcast payloads, and 8 its
// delivery queue and record regrowing from empty (20.5 KB at GOMAXPROCS 1,
// 22 KB at 4, 24–33 KB at 16). With the payload copies carved from
// blocks, the queue and record recycled by Step, and every node reading
// the step's results in place from one shared table, it costs 7: the
// pool's closures, the round's report and its outputs. The heap bytes,
// 6 KB at GOMAXPROCS 1 and 7 KB at 4, grow with the fan-out's
// goroutines, which every pool call starts afresh (9–16.5 KB at 16). The
// allocation ceiling sits within 10 % above today's figure, the byte
// ceiling within 10 % above today's largest figure at GOMAXPROCS 16, so
// the guard holds on a large runner. The race detector's own allocations
// are added on top (raceHeapSlack).
func TestRoundAllocGuard(t *testing.T) {
	const allocCeiling, byteCeiling = 8, 18_000
	allocs := testing.AllocsPerRun(5, honestRounds(t))
	bytes := bytesPerRun(5, honestRounds(t))
	t.Logf("per honest N=64 K=22 b=21 round: %.0f heap allocations (GOMAXPROCS 1), %d heap bytes (GOMAXPROCS %d)", allocs, bytes, runtime.GOMAXPROCS(0))
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
// worker (testing.AllocsPerRun sets GOMAXPROCS to 1) so the count is the
// engine's and not the fan-out's. A batch
// cost 36 141 allocations while results were parsed into fresh slices,
// 11 548 while every node parsed each result into its own rows, and
// 10 516 once each envelope was parsed once per tick, about 4 000 of them
// the liars' wrong results and client replies drawn into fresh vectors.
// With those drawn into reused buffers, and the nodes' step buffers and
// the step outcomes with their decode buffers reused too, it cost 691, and
// 674 once pool.Run stopped wrapping each phase's function in a closure of
// its own, on any GOMAXPROCS and under the race detector: 512 were the
// network's copies of the broadcast payloads. With those carved from
// blocks and the network's queues recycled it costs 102. The ceiling sits
// within 10 % above today's figure.
func TestByzantineBatchAllocGuard(t *testing.T) {
	const allocCeiling = 112
	allocs := testing.AllocsPerRun(3, byzantineBatches(t))
	t.Logf("per B=8 batch of 21-liar N=64 K=22 b=21 rounds: %.0f heap allocations (GOMAXPROCS 1)", allocs)
	if allocs > allocCeiling {
		t.Errorf("%.0f allocations per batch, ceiling %d", allocs, allocCeiling)
	}
}

// TestProcessRoundAllocGuard caps the heap allocations of one round of
// the deployed engine at TestProcessRoundCountGuard's Oracle shape: four
// NodeProcess (N=4, K=2, b=1) over local links, one round per batch,
// counted over all four processes until each has returned the round. A
// round cost 164 allocations while every apply, payload and decode was a
// fresh allocation; with the step core's buffers reused it cost 124, and
// 113 once the simulated network under the links carved its payload
// copies from blocks and recycled its queues: mostly the links' message
// slices and the outputs each process returns. The ceiling sits within
// 10 % above today's figure.
func TestProcessRoundAllocGuard(t *testing.T) {
	const allocCeiling = 124
	net, err := transport.New(transport.Config{N: consN, Mode: transport.Sync, Seed: consSeed})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*NodeProcess[uint64], consN)
	for i, l := range links {
		procs[i] = consProcess(t, Oracle, l)
	}
	// Each follower reports every batch it returns, and its stop.
	followed := make(chan error, consN)
	for _, p := range procs[1:] {
		go func() {
			for {
				_, stop, err := p.FollowBatch()
				followed <- err
				if stop || err != nil {
					return
				}
			}
		}()
	}
	waitFollowers := func() {
		for range consN - 1 {
			if err := <-followed; err != nil {
				t.Fatal(err)
			}
		}
	}
	wl := RandomWorkload[uint64](gold, 16, consK, 1, consSeed)
	r := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := procs[0].LeadBatch(wl[r%len(wl) : r%len(wl)+1]); err != nil {
			t.Fatal(err)
		}
		waitFollowers()
		r++
	})
	if err := procs[0].Stop(); err != nil {
		t.Fatal(err)
	}
	waitFollowers()
	t.Logf("per N=4 K=2 NodeProcess round over local links: %.0f heap allocations (all four processes)", allocs)
	if allocs > allocCeiling {
		t.Errorf("%.0f allocations per round, ceiling %d", allocs, allocCeiling)
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
// TestRoundOpCountGuard's shape, after one round that primes every node's
// decode. Its rounds fan out over the GOMAXPROCS they run at.
func honestRounds(t *testing.T) func() {
	cfg := baseConfig(22, 64, 21)
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
// BenchmarkByzantineBatch's shape, after one batch that learns the liars
// and primes every node's decode. Its batches fan out over the GOMAXPROCS
// they run at.
func byzantineBatches(t *testing.T) func() {
	cfg := baseConfig(22, 64, 21)
	cfg.Byzantine = map[int]Behavior{}
	for i := 0; len(cfg.Byzantine) < 21; i++ {
		cfg.Byzantine[(i*5+2)%64] = WrongResult
	}
	cfg.BatchSize, cfg.Pipeline = 8, 4
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
	const decentralised = 21_104 // TestRoundOpCountGuard's steady honest round
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
// the other three nodes' prepares, commits and results. While the K=2
// outputs were predicted from disjoint points node 0 counted
// [304 48 48 48 48 48], and [266 36 36 36 36 36] while its encode and
// re-encode ran on its unit row.
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
		{run: processRun{kind: Oracle}, ops: []uint64{258, 28, 28, 28, 28, 28}, ticks: []int{2, 2, 2, 2, 2, 2},
			msgs: msgCounts{sent: [4]int{0, 0, 0, 1}, recv: [4]int{0, 0, 0, 3}}},
		{run: processRun{kind: PBFT, durable: true}, ops: []uint64{258, 28, 28, 28, 28, 28}, ticks: []int{2, 2, 2, 2, 2, 2},
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
