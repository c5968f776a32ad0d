package csm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"codedsm/internal/consensus"
	"codedsm/internal/field"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// The consensus fixture: N=4 nodes sized for one real fault with K=2
// degree-1 registers ((K-1)d + 2b + 1 = 4), the smallest shape where
// PBFT (N >= 3b+1) and the erasure threshold (K-1)d+1 = 2 both leave
// room for a dead node.
const (
	consN      = 4
	consK      = 2
	consFaults = 1
	consRounds = 8
	consSeed   = 1711
)

func consTransition(f field.Field[uint64]) (*sm.Transition[uint64], error) {
	return sm.NewPolynomialRegister(f, 1)
}

// consOracleCluster builds the consensus fixture as a simulated Oracle
// cluster.
func consOracleCluster(t *testing.T) *Cluster[uint64] {
	t.Helper()
	c, err := New(Config[uint64]{
		BaseField:     field.NewGoldilocks(),
		NewTransition: consTransition,
		K:             consK,
		N:             consN,
		MaxFaults:     consFaults,
		Mode:          transport.Sync,
		Consensus:     Oracle,
		Seed:          consSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// consOracleOutputs runs the consensus fixture's workload on the
// simulated Oracle cluster — the deterministic reference every
// consensus mode must reproduce bit-identically.
func consOracleOutputs(t *testing.T, workload [][][]uint64) [][][]uint64 {
	t.Helper()
	results, err := consOracleCluster(t).Run(workload)
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

// consProcess builds one consensus-fixture node over the given link.
func consProcess(t *testing.T, kind ConsensusKind, l transport.Link) *NodeProcess[uint64] {
	t.Helper()
	p, err := NewNodeProcess(RemoteConfig[uint64]{
		BaseField:     field.NewGoldilocks(),
		NewTransition: consTransition,
		K:             consK,
		MaxFaults:     consFaults,
		Consensus:     kind,
	}, l)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRemoteConsensusMatchesOracleOverLocalLinks is the pluggable-
// consensus equivalence contract on the deterministic transport: a
// symmetric RunWorkload cluster deciding every batch with a real BFT
// protocol produces outputs bit-identical to the simulated Oracle
// cluster on the same workload.
func TestRemoteConsensusMatchesOracleOverLocalLinks(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, consRounds, consK, 1, consSeed)
	want := consOracleOutputs(t, workload)
	for _, kind := range []ConsensusKind{DolevStrong, PBFT} {
		for _, batch := range []int{1, 3} {
			net, err := transport.New(transport.Config{N: consN, Mode: transport.Sync, Seed: consSeed})
			if err != nil {
				t.Fatal(err)
			}
			links, err := transport.NewLocalLinks(net)
			if err != nil {
				t.Fatal(err)
			}
			outs := make([][][][]uint64, consN)
			errs := make([]error, consN)
			var wg sync.WaitGroup
			for i, l := range links {
				wg.Add(1)
				go func(i int, l transport.Link) {
					defer wg.Done()
					p := consProcess(t, kind, l)
					outs[i], errs[i] = p.RunWorkload(workload, batch)
				}(i, l)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%v batch=%d node %d: %v", kind, batch, i, err)
				}
			}
			for i := range outs {
				requireIdentical(t, i, outs[i], want)
			}
		}
	}
}

// tcpConsensusLinks brings up N real TCP links for the consensus
// fixture, with the barrier sized to survive consFaults dead peers.
func tcpConsensusLinks(t *testing.T) []transport.Link {
	t.Helper()
	addrs := make([]string, consN)
	lns := make([]net.Listener, consN)
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
	links := make([]transport.Link, consN)
	errs := make([]error, consN)
	var wg sync.WaitGroup
	for i := 0; i < consN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tcp, err := transport.NewTCP(transport.TCPConfig{
				Self: transport.NodeID(i), N: consN, Seed: consSeed,
				Listen: addrs[i], Peers: addrs,
				DialTimeout: 20 * time.Second, StepTimeout: 20 * time.Second,
				FailoverQuorum: consN - 1 - consFaults,
				SuspectAfter:   250 * time.Millisecond,
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
	t.Cleanup(func() {
		for _, l := range links {
			if l != nil {
				l.Close()
			}
		}
	})
	return links
}

// TestRemotePBFTMatchesOracleOverTCP pins the acceptance contract: a
// 4-process-shaped PBFT cluster over real localhost sockets lands
// bit-identical to the in-memory simulated oracle.
func TestRemotePBFTMatchesOracleOverTCP(t *testing.T) {
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, consRounds, consK, 1, consSeed)
	want := consOracleOutputs(t, workload)
	links := tcpConsensusLinks(t)
	outs := make([][][][]uint64, consN)
	errs := make([]error, consN)
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l transport.Link) {
			defer wg.Done()
			p := consProcess(t, PBFT, l)
			outs[i], errs[i] = p.RunWorkload(workload, 2)
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i := range outs {
		requireIdentical(t, i, outs[i], want)
	}
}

// TestRemotePBFTLeaderFailoverOverTCP is the leader-failover contract:
// the view-0 leader (node 0) dies after a prefix of the workload — its
// link closes mid-run — and the survivors' view change routes
// leadership around it, completes every remaining round, and still
// produces the oracle's outputs bit-identically.
func TestRemotePBFTLeaderFailoverOverTCP(t *testing.T) {
	const killAfter = 3 // rounds the leader completes before dying
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, consRounds, consK, 1, consSeed)
	want := consOracleOutputs(t, workload)
	links := tcpConsensusLinks(t)
	outs := make([][][][]uint64, consN)
	errs := make([]error, consN)
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l transport.Link) {
			defer wg.Done()
			p := consProcess(t, PBFT, l)
			if i == 0 {
				// The leader executes only a prefix, then drops off the
				// network — the moral equivalent of kill -9 mid-run.
				outs[i], errs[i] = p.RunWorkload(workload[:killAfter], 1)
				l.Close()
				return
			}
			outs[i], errs[i] = p.RunWorkload(workload, 1)
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	requireIdentical(t, 0, outs[0], want[:killAfter])
	for i := 1; i < consN; i++ {
		requireIdentical(t, i, outs[i], want)
	}
}

// foreignTagLink tags its node's result broadcasts for one workload round
// with the digest of no batch, and flips the first element: a peer that
// counted such a result would name the node as faulty.
type foreignTagLink struct {
	transport.Link
	round uint64
}

func (l foreignTagLink) Broadcast(kind string, payload []byte) error {
	if kind == resultKind && binary.LittleEndian.Uint64(payload) == l.round {
		payload = slices.Clone(payload)
		foreign := sha256.Sum256([]byte("no batch"))
		copy(payload[8:40], foreign[:])
		payload[resultHdrLen] ^= 1
	}
	return l.Link.Broadcast(kind, payload)
}

// TestRemoteForeignTagNeverCounted: one peer's results for round 2 carry
// a tag naming no batch. No node counts them — the others wait out the
// straggler grace and decode without that peer — so nobody is accused,
// and every digest is still Cluster.Run's.
func TestRemoteForeignTagNeverCounted(t *testing.T) {
	const peer, round = 3, 2
	workload := RandomWorkload[uint64](gold, 6, consK, 1, consSeed)
	got := runProcesses(t, processRun{kind: PBFT, wrap: func(i int, l transport.Link) transport.Link {
		if i == peer {
			return foreignTagLink{Link: l, round: round}
		}
		return l
	}}, workload)
	want := consDigest(t, workload)
	for i, p := range got.procs {
		if p.DigestSum() != want || len(p.FaultyDetected()) != 0 {
			t.Errorf("node %d digest %s detected %v, want %s and nobody", i, p.DigestSum(), p.FaultyDetected(), want)
		}
	}
	if ticks := got.ticks[0][round]; ticks != 2+quorumGraceTicks {
		t.Errorf("node 0 spent %d ticks on round %d, want %d: the foreign-tagged result was counted", ticks, round, 2+quorumGraceTicks)
	}
}

// TestRemoteOddProposalTakesNormalExchange: node 3 is fed a different
// batch for round 2. Its start-view prepare is spent on that batch, so it
// never becomes prepared (sends no commit) and never speculates; it
// decides the majority batch from the others' commit quorum, counts their
// step-0 results, and broadcasts its own after the decision. Every node
// then steps the same three ticks, and every digest is the majority
// workload's.
func TestRemoteOddProposalTakesNormalExchange(t *testing.T) {
	const odd, round = 3, 2
	workload := RandomWorkload[uint64](gold, 6, consK, 1, consSeed)
	fed := slices.Clone(workload)
	fed[round] = RandomWorkload[uint64](gold, 1, consK, 1, consSeed+1)[0]
	got := runProcesses(t, processRun{kind: PBFT, feed: map[int][][][]uint64{odd: fed}}, workload)
	want := consDigest(t, workload)
	for i, p := range got.procs {
		if p.DigestSum() != want {
			t.Errorf("node %d digest %s, the majority's %s", i, p.DigestSum(), want)
		}
		m, commits := got.msgs[i][round], 1
		if i == odd {
			commits = 0
		}
		if got.ticks[i][round] != 3 || m.sent[ixCommit] != commits || m.sent[ixResult] != 1 {
			t.Errorf("node %d round %d: %d ticks, sent %d commits and %d results; want 3, %d, 1",
				i, round, got.ticks[i][round], m.sent[ixCommit], m.sent[ixResult], commits)
		}
	}
}

// commitDropLink withholds its node's view-0 commits for one slot, so the
// instance cannot decide in view 0 although every node has prepared and
// speculated; the view change carries the prepared batch into view 1.
type commitDropLink struct {
	transport.Link
	slot uint64
}

func (l commitDropLink) Broadcast(kind string, payload []byte) error {
	if kind == "pbft-commit" {
		if v, err := consensus.DecodeVoteMsg(payload); err == nil && v.Slot == l.slot && v.View == 0 {
			return nil
		}
	}
	return l.Link.Broadcast(kind, payload)
}

// TestRemoteSpeculationSurvivesViewChange: round 2 decides only after a
// view change, on the batch every node speculated on. The speculation is
// kept — one result broadcast per node, no extra field ops — and the
// outputs are Cluster.Run's.
func TestRemoteSpeculationSurvivesViewChange(t *testing.T) {
	const round = 2
	workload := RandomWorkload[uint64](gold, 6, consK, 1, consSeed)
	got := runProcesses(t, processRun{kind: PBFT, wrap: func(i int, l transport.Link) transport.Link {
		return commitDropLink{Link: l, slot: round}
	}}, workload)
	want := consDigest(t, workload)
	for i, p := range got.procs {
		if p.DigestSum() != want {
			t.Errorf("node %d digest %s, Cluster.Run's %s", i, p.DigestSum(), want)
		}
		if got.ticks[i][round] <= 2 || got.msgs[i][round].sent[ixResult] != 1 {
			t.Errorf("node %d round %d: %d ticks, %d result broadcasts; want a view change and 1",
				i, round, got.ticks[i][round], got.msgs[i][round].sent[ixResult])
		}
	}
	if got.ops[round] != got.ops[round-1] {
		t.Errorf("node 0 round %d cost %d field ops, round %d %d: the speculation was recomputed", round, got.ops[round], round-1, got.ops[round-1])
	}
}

// TestValidateRemoteConsensus pins the eager typed validation used by
// NewNodeProcess and csmnode bootstrap.
func TestValidateRemoteConsensus(t *testing.T) {
	cases := []struct {
		kind    ConsensusKind
		n, b    int
		wantErr bool
	}{
		{Oracle, 4, 0, false},
		{Oracle, 4, 3, false}, // oracle has no quorum shape of its own
		{DolevStrong, 4, 1, false},
		{DolevStrong, 4, 4, true}, // b >= N
		{DolevStrong, 1, 0, true}, // no peers to relay to
		{PBFT, 4, 1, false},
		{PBFT, 4, 2, true}, // N < 3b+1
		{PBFT, 7, 2, false},
		{ConsensusKind(42), 4, 0, true}, // unknown kind
		{PBFT, 4, -1, true},             // negative budget
	}
	for _, tc := range cases {
		err := ValidateRemoteConsensus(tc.kind, tc.n, tc.b)
		if tc.wantErr && !errors.Is(err, ErrConsensusConfig) {
			t.Errorf("ValidateRemoteConsensus(%v, %d, %d) = %v, want ErrConsensusConfig", tc.kind, tc.n, tc.b, err)
		}
		if !tc.wantErr && err != nil {
			t.Errorf("ValidateRemoteConsensus(%v, %d, %d) = %v, want nil", tc.kind, tc.n, tc.b, err)
		}
	}
}

// TestRemoteConsensusEntryPoints pins that the driver surface matches
// the configured protocol: BFT clusters refuse the sequencer split,
// Oracle clusters refuse RunWorkload.
func TestRemoteConsensusEntryPoints(t *testing.T) {
	net, err := transport.New(transport.Config{N: consN, Mode: transport.Sync, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	bft := consProcess(t, PBFT, links[0])
	if _, err := bft.LeadBatch([][][]uint64{{{1}, {2}}}); !errors.Is(err, ErrConsensusConfig) {
		t.Errorf("LeadBatch under PBFT: %v, want ErrConsensusConfig", err)
	}
	bft1 := consProcess(t, PBFT, links[1])
	if _, _, err := bft1.FollowBatch(); !errors.Is(err, ErrConsensusConfig) {
		t.Errorf("FollowBatch under PBFT: %v, want ErrConsensusConfig", err)
	}
	oracle := consProcess(t, Oracle, links[2])
	if _, err := oracle.RunWorkload(nil, 1); !errors.Is(err, ErrConsensusConfig) {
		t.Errorf("RunWorkload under Oracle: %v, want ErrConsensusConfig", err)
	}
	// A PBFT shape the capacity check admits but the quorum check must
	// reject: K=1 fits N=5 b=2, PBFT needs N >= 7.
	if _, err := NewNodeProcess(RemoteConfig[uint64]{
		BaseField:     field.NewGoldilocks(),
		NewTransition: consTransition,
		K:             consK,
		MaxFaults:     consFaults,
		Consensus:     ConsensusKind(42),
	}, links[3]); !errors.Is(err, ErrConsensusConfig) {
		t.Errorf("NewNodeProcess with unknown kind: %v, want ErrConsensusConfig", err)
	}
}

// TestDurableConsensusProtocolMismatch: a data directory written under
// one protocol must refuse to resume under another, with the typed
// sentinel.
func TestDurableConsensusProtocolMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := openNodeStore(DurabilityConfig{Dir: dir}, PBFT)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.appendApplied(0, []uint64{1, 2}, []byte("digest-state"), [][]uint64{{3}, {4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := openNodeStore(DurabilityConfig{Dir: dir}, Oracle); !errors.Is(err, ErrConsensusMismatch) {
		t.Fatalf("reopen under Oracle: %v, want ErrConsensusMismatch", err)
	}
	// Same protocol resumes fine, at the recorded round.
	s2, err := openNodeStore(DurabilityConfig{Dir: dir}, PBFT)
	if err != nil {
		t.Fatalf("reopen under PBFT: %v", err)
	}
	defer s2.close()
	if s2.round != 1 {
		t.Fatalf("recovered round %d, want 1", s2.round)
	}
}

// senderLink records the slot of every Dolev-Strong chain its node opens
// as an instance's designated sender: a chain it alone has signed.
type senderLink struct {
	transport.Link
	slots []uint64
}

func (l *senderLink) Broadcast(kind string, payload []byte) error {
	if kind == "dolev-strong" {
		if cm, err := consensus.DecodeChainMsg(payload); err == nil && len(cm.Signers) == 1 {
			l.slots = append(l.slots, cm.Slot)
		}
	}
	return l.Link.Broadcast(kind, payload)
}

// TestDolevStrongSenderRotatesByInstance: a Dolev-Strong NodeProcess
// cluster rotates the designated sender over consensus instances, as the
// simulated Cluster does, so with B=2 on N=4 every node sends one of the
// first four batches. Rotating with the round instead would pick nodes 0
// and 2 alone whenever gcd(B, N) = 2.
func TestDolevStrongSenderRotatesByInstance(t *testing.T) {
	const batch = 2
	links := make([]*senderLink, consN)
	got := runProcesses(t, processRun{kind: DolevStrong, batch: batch, wrap: func(i int, l transport.Link) transport.Link {
		links[i] = &senderLink{Link: l}
		return links[i]
	}}, RandomWorkload[uint64](gold, consN*batch, consK, 1, consSeed))
	for i, l := range links {
		want := []uint64{uint64(i * batch)}
		if !slices.Equal(l.slots, want) {
			t.Errorf("node %d opened the chains of slots %v, want %v (slot = the batch's first round)", i, l.slots, want)
		}
	}
	want := consDigest(t, RandomWorkload[uint64](gold, consN*batch, consK, 1, consSeed))
	for i, p := range got.procs {
		if p.DigestSum() != want {
			t.Errorf("node %d digest %s, Cluster.Run's %s", i, p.DigestSum(), want)
		}
	}
}
