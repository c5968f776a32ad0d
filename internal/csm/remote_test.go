package csm

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"codedsm/internal/field"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
	"codedsm/internal/wal"
)

// remoteFixture is the shared shape of the remote-vs-oracle tests: a
// 4-node cluster, K=2 degree-2 polynomial registers, a seeded workload.
const (
	remoteN      = 4
	remoteK      = 2
	remoteFaults = 0
	remoteRounds = 6
	remoteSeed   = 4242
)

func remoteTransition(f field.Field[uint64]) (*sm.Transition[uint64], error) {
	return sm.NewPolynomialRegister(f, 2)
}

// runRemoteCluster drives one NodeProcess per link concurrently — node 0
// leads the workload, the rest follow — and returns each node's decoded
// outputs.
func runRemoteCluster(t *testing.T, links []transport.Link, workload [][][]uint64, batchSize int) [][][][]uint64 {
	t.Helper()
	gold := field.NewGoldilocks()
	outs := make([][][][]uint64, len(links))
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l transport.Link) {
			defer wg.Done()
			p, err := NewNodeProcess(RemoteConfig[uint64]{
				BaseField:     gold,
				NewTransition: remoteTransition,
				K:             remoteK,
				MaxFaults:     remoteFaults,
			}, l)
			if err != nil {
				errs[i] = err
				return
			}
			if p.IsSequencer() {
				outs[i], errs[i] = p.Lead(workload, batchSize)
			} else {
				outs[i], errs[i] = p.Follow()
			}
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("remote node %d: %v", i, err)
		}
	}
	return outs
}

// oracleOutputs runs the same workload on the simulated single-process
// cluster (the deterministic oracle) and returns its per-round outputs.
func oracleOutputs(t *testing.T, workload [][][]uint64) [][][]uint64 {
	t.Helper()
	c, err := New(Config[uint64]{
		BaseField:     field.NewGoldilocks(),
		NewTransition: remoteTransition,
		K:             remoteK,
		N:             remoteN,
		MaxFaults:     remoteFaults,
		Mode:          transport.Sync,
		Consensus:     Oracle,
		Seed:          remoteSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Run(workload)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]uint64, len(results))
	for r, res := range results {
		if !res.Correct {
			t.Fatalf("oracle round %d not correct", r)
		}
		out[r] = res.Outputs
	}
	return out
}

// requireIdentical asserts a remote node's outputs are bit-identical to
// the oracle's, element for element.
func requireIdentical(t *testing.T, node int, got [][][]uint64, want [][][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("node %d executed %d rounds, oracle %d", node, len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("node %d round %d: %d machines, oracle %d", node, r, len(got[r]), len(want[r]))
		}
		for k := range want[r] {
			if len(got[r][k]) != len(want[r][k]) {
				t.Fatalf("node %d round %d machine %d: output length %d, oracle %d",
					node, r, k, len(got[r][k]), len(want[r][k]))
			}
			for j := range want[r][k] {
				if got[r][k][j] != want[r][k][j] {
					t.Fatalf("node %d round %d machine %d elem %d: got %d, oracle %d",
						node, r, k, j, got[r][k][j], want[r][k][j])
				}
			}
		}
	}
}

// TestRemoteMatchesClusterOverLocalLinks is the engine-equivalence
// contract on the deterministic transport: the per-process engine, run
// over the in-memory lock-step links, produces outputs bit-identical to
// the monolithic simulated Cluster on the same workload.
func TestRemoteMatchesClusterOverLocalLinks(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	want := oracleOutputs(t, workload)
	for _, batch := range []int{1, 3} {
		net, err := transport.New(transport.Config{N: remoteN, Mode: transport.Sync, Seed: remoteSeed})
		if err != nil {
			t.Fatal(err)
		}
		links, err := transport.NewLocalLinks(net)
		if err != nil {
			t.Fatal(err)
		}
		outs := runRemoteCluster(t, links, workload, batch)
		for i := range outs {
			requireIdentical(t, i, outs[i], want)
		}
	}
}

// TestRemoteMatchesClusterOverTCP is the full tentpole contract: the same
// engine over real localhost sockets — framed, authenticated, reconnecting —
// still lands bit-identical to the in-memory oracle.
func TestRemoteMatchesClusterOverTCP(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, remoteK, 1, remoteSeed)
	want := oracleOutputs(t, workload)

	addrs := make([]string, remoteN)
	lns := make([]net.Listener, remoteN)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	links := make([]transport.Link, remoteN)
	errs := make([]error, remoteN)
	var wg sync.WaitGroup
	for i := 0; i < remoteN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tcp, err := transport.NewTCP(transport.TCPConfig{
				Self: transport.NodeID(i), N: remoteN, Seed: remoteSeed,
				Listen: addrs[i], Peers: addrs,
				DialTimeout: 20 * time.Second, StepTimeout: 20 * time.Second,
			})
			links[i], errs[i] = tcp, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tcp node %d: %v", i, err)
		}
	}
	defer func() {
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
	}()
	outs := runRemoteCluster(t, links, workload, 2)
	for i := range outs {
		requireIdentical(t, i, outs[i], want)
	}
}

// TestRemoteConfigValidation pins the constructor's rejections.
func TestRemoteConfigValidation(t *testing.T) {
	gold := field.NewGoldilocks()
	net, err := transport.New(transport.Config{N: 4, Mode: transport.Sync, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	base := RemoteConfig[uint64]{BaseField: gold, NewTransition: remoteTransition, K: 2}
	for _, tc := range []struct {
		name string
		mut  func(*RemoteConfig[uint64])
	}{
		{"missing field", func(c *RemoteConfig[uint64]) { c.BaseField = nil }},
		{"negative faults", func(c *RemoteConfig[uint64]) { c.MaxFaults = -1 }},
		{"over capacity", func(c *RemoteConfig[uint64]) { c.K = 100 }},
	} {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewNodeProcess(cfg, links[0]); err == nil {
			t.Errorf("%s: NewNodeProcess accepted invalid config", tc.name)
		}
	}
	if _, err := NewNodeProcess(base, nil); err == nil {
		t.Error("nil link accepted")
	}
	// Role checks.
	p0, err := NewNodeProcess(base, links[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewNodeProcess(base, links[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.LeadBatch(nil); err == nil {
		t.Error("follower was allowed to lead")
	}
	if _, _, err := p0.FollowBatch(); err == nil {
		t.Error("sequencer was allowed to follow")
	}
	if err := p1.Stop(); err == nil {
		t.Error("follower was allowed to stop the cluster")
	}
}

// TestRemoteStopIsIdempotent: Lead already stops the cluster; a second
// Stop must be a no-op and LeadBatch afterwards must fail ErrStopped.
func TestRemoteStopIsIdempotent(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, 2, remoteK, 1, 7)
	net, err := transport.New(transport.Config{N: remoteN, Mode: transport.Sync, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*NodeProcess[uint64], remoteN)
	for i, l := range links {
		p, err := NewNodeProcess(RemoteConfig[uint64]{
			BaseField: gold, NewTransition: remoteTransition, K: remoteK,
		}, l)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	var wg sync.WaitGroup
	errs := make([]error, remoteN)
	var leadErr error
	for i := 1; i < remoteN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = procs[i].Follow()
		}(i)
	}
	_, leadErr = procs[0].Lead(workload, 1)
	wg.Wait()
	if leadErr != nil {
		t.Fatal(leadErr)
	}
	for i := 1; i < remoteN; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
	}
	if err := procs[0].Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if _, err := procs[0].LeadBatch([][][]uint64{{make([]uint64, 1), make([]uint64, 1)}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("LeadBatch after Stop: %v, want ErrStopped", err)
	}
}

// TestRemoteBatchValidation pins LeadBatch's shape checks.
func TestRemoteBatchValidation(t *testing.T) {
	gold := field.NewGoldilocks()
	net, err := transport.New(transport.Config{N: remoteN, Mode: transport.Sync, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewNodeProcess(RemoteConfig[uint64]{
		BaseField: gold, NewTransition: remoteTransition, K: remoteK,
	}, links[0])
	if err != nil {
		t.Fatal(err)
	}
	cases := [][][][]uint64{
		{},                         // empty batch
		{{{0}}},                    // one command vector for K=2
		{{{0, 1}, {0}}},            // wrong command length
		{{make([]uint64, 1)}, nil}, // second round malformed
	}
	for i, batch := range cases {
		if _, err := p.LeadBatch(batch); err == nil {
			t.Errorf("case %d: LeadBatch accepted malformed batch %v", i, batch)
		}
	}

	// A well-formed batch for another round than the follower is at: a
	// typed desync error, nothing executed, nothing logged.
	dir := t.TempDir()
	follower, err := NewNodeProcess(RemoteConfig[uint64]{
		BaseField: gold, NewTransition: remoteTransition, K: remoteK,
		Durability: &DurabilityConfig{Dir: dir},
	}, links[1])
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	wrongRound := encodeBatchMsg[uint64](gold, 1, RandomWorkload[uint64](gold, 1, remoteK, 1, 3))
	if err := links[SequencerID].Broadcast(batchKind, wrongRound); err != nil {
		t.Fatal(err)
	}
	var peers sync.WaitGroup
	for _, i := range []int{0, 2, 3} {
		peers.Add(1)
		go func(l transport.Link) {
			defer peers.Done()
			_, _ = l.Step() // the tick that delivers the batch
		}(links[i])
	}
	_, done, err := follower.FollowBatch()
	peers.Wait()
	var desync *batchDesyncError
	if !errors.As(err, &desync) || desync.at != 0 || desync.got != 1 || done {
		t.Fatalf("FollowBatch on a round-1 batch at round 0: done=%v err=%v, want a desync error", done, err)
	}
	if follower.Round() != 0 {
		t.Errorf("follower executed %d rounds of a desynchronized batch", follower.Round())
	}
	seg, err := os.Open(filepath.Join(dir, wal.SegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	records := 0
	if _, err := wal.Scan(seg, func(wal.Record) error { records++; return nil }); err != nil {
		t.Fatal(err)
	}
	if records != 0 {
		t.Errorf("a desynchronized batch left %d WAL records", records)
	}
}
