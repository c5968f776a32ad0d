package csm

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/nodeapi"
	"codedsm/internal/rs"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// lyingLink is a Byzantine peer as the deployed engine meets one: the
// node behind it computes honestly, but every execution result it
// broadcasts — or, with only set, the result of that one workload round —
// is corrupted before it is sent.
type lyingLink struct {
	transport.Link
	only *int
}

func (l lyingLink) Broadcast(kind string, payload []byte) error {
	if kind == resultKind && (l.only == nil || binary.LittleEndian.Uint64(payload) == uint64(*l.only)) {
		payload = slices.Clone(payload)
		payload[resultHdrLen] ^= 1 // low bit of the first result element
	}
	return l.Link.Broadcast(kind, payload)
}

// runByzRemote runs a 4-node, K=2, b=1 Bank cluster over local links with
// the given nodes behind a lyingLink, and returns every process with its
// run error. A node that fails closes its link so the rest cannot block on
// the barrier — the nodes in failing, which the caller expects to fail on
// the same step, only once all of them have (a close racing a peer's
// barrier wake-up would replace that peer's own error with ErrClosed).
func runByzRemote(t *testing.T, workload [][][]uint64, liars, failing []int) ([]*NodeProcess[uint64], []error) {
	t.Helper()
	const n, k, b = 4, 2, 1
	net, err := transport.New(transport.Config{N: n, Mode: transport.Sync, Seed: remoteSeed})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]*NodeProcess[uint64], n)
	errs := make([]error, n)
	var wg, failed sync.WaitGroup
	failed.Add(len(failing))
	for i, l := range links {
		if slices.Contains(liars, i) {
			l = lyingLink{Link: l}
		}
		p, err := NewNodeProcess(RemoteConfig[uint64]{
			BaseField:     field.NewGoldilocks(),
			NewTransition: sm.NewBank[uint64],
			K:             k,
			MaxFaults:     b,
		}, l)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		wg.Add(1)
		go func(i int, l transport.Link) {
			defer wg.Done()
			if p.IsSequencer() {
				_, errs[i] = p.Lead(workload, 1)
			} else {
				_, errs[i] = p.Follow()
			}
			if slices.Contains(failing, i) {
				failed.Done()
				failed.Wait()
			}
			if errs[i] != nil {
				_ = l.Close() // unblock the peers; the run error is what the test reports
			}
		}(i, l)
	}
	wg.Wait()
	return procs, errs
}

// TestRemoteCorrectsByzantineResult pins the deployed engine to the
// simulator and the paper: a corrupted result within the budget is
// corrected, the round carries on with the oracle's outputs, and the liar
// is reported rather than fatal.
func TestRemoteCorrectsByzantineResult(t *testing.T) {
	const liar = 2
	gold := field.NewGoldilocks()
	workload := RandomWorkload[uint64](gold, remoteRounds, 2, 1, remoteSeed)
	tr, err := sm.NewBank[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	want := nodeapi.NewDigest()
	machines := make([]*sm.Machine[uint64], 2)
	for k := range machines {
		if machines[k], err = sm.NewMachine(tr, field.ZeroVec[uint64](gold, tr.StateLen())); err != nil {
			t.Fatal(err)
		}
	}
	for r, cmds := range workload {
		outs := make([][]uint64, len(machines))
		for k, m := range machines {
			if outs[k], err = m.Step(cmds[k]); err != nil {
				t.Fatal(err)
			}
		}
		want.AddRound(r, outs)
	}
	procs, errs := runByzRemote(t, workload, []int{liar}, nil)
	for i, p := range procs {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if i == liar {
			continue
		}
		if p.Round() != remoteRounds || p.DigestSum() != want.Sum() {
			t.Fatalf("node %d: round %d digest %s, oracle %s", i, p.Round(), p.DigestSum(), want.Sum())
		}
		if got := p.FaultyDetected(); !slices.Equal(got, []int{liar}) {
			t.Fatalf("node %d detected %v, want [%d]", i, got, liar)
		}
	}
}

// TestRemoteDecodeFailureIsTyped pins the other side: corruption beyond
// the budget is a typed error, never a wrong output.
func TestRemoteDecodeFailureIsTyped(t *testing.T) {
	workload := RandomWorkload[uint64](field.NewGoldilocks(), 2, 2, 1, remoteSeed)
	procs, errs := runByzRemote(t, workload, []int{2, 3}, []int{0, 1})
	for _, honest := range []int{0, 1} {
		if !errors.Is(errs[honest], rs.ErrTooManyErrors) {
			t.Fatalf("node %d: err = %v, want rs.ErrTooManyErrors", honest, errs[honest])
		}
		if procs[honest].Round() != 0 {
			t.Fatalf("node %d executed %d rounds past an undecodable one", honest, procs[honest].Round())
		}
	}
}

// requireHonestOutcome checks what a corrected run owes its operator: every
// node but the liar ends on Cluster.Run's digest and names exactly the liar.
func requireHonestOutcome(t *testing.T, procs []*NodeProcess[uint64], liar int, want string) {
	t.Helper()
	for i, p := range procs {
		if i == liar {
			continue
		}
		if p.DigestSum() != want {
			t.Errorf("node %d digest %s, Cluster.Run's %s", i, p.DigestSum(), want)
		}
		if got := p.FaultyDetected(); !slices.Equal(got, []int{liar}) {
			t.Errorf("node %d detected %v, want [%d]", i, got, liar)
		}
	}
}

// TestRemoteSuspicionIsSticky: node 1 — inside the rows an unsuspecting
// check trusts — lies in every round. The honest nodes fall back to the
// full decoder once, re-prime around node 1, and from then on certify
// every step: once the liar is known, a batch costs node 0 no more than
// the same batch of a cluster where nobody lies.
func TestRemoteSuspicionIsSticky(t *testing.T) {
	const liar = 1
	workload := RandomWorkload[uint64](gold, 8, consK, 1, consSeed)
	want := consDigest(t, workload)
	for _, kind := range []ConsensusKind{Oracle, PBFT} {
		clean := runProcesses(t, processRun{kind: kind, batch: 2}, workload)
		lying := runProcesses(t, processRun{kind: kind, batch: 2, wrap: func(i int, l transport.Link) transport.Link {
			if i == liar {
				return lyingLink{Link: l}
			}
			return l
		}}, workload)
		requireHonestOutcome(t, lying.procs, liar, want)
		last := len(lying.ops) - 1
		if lying.ops[0] <= clean.ops[0] {
			t.Errorf("%v: first batch cost %d ops, the clean cluster's %d: the liar forced no fallback", kind, lying.ops[0], clean.ops[0])
		}
		if lying.ops[last] > lying.ops[1] || lying.ops[last] > clean.ops[last] {
			t.Errorf("%v: last batch cost %d ops, second %d, clean cluster's %d: a decode fell back again (per batch: %v)",
				kind, lying.ops[last], lying.ops[1], clean.ops[last], lying.ops)
		}
	}
}

// TestRemoteLateLiarFallsBackOnce: node 1 corrupts its result in round 3
// only. That round's decode falls back and corrects it; every round after
// it certifies again at the steady-state cost.
func TestRemoteLateLiarFallsBackOnce(t *testing.T) {
	const liar, lieRound = 1, 3
	workload := RandomWorkload[uint64](gold, 8, consK, 1, consSeed)
	only := lieRound
	got := runProcesses(t, processRun{kind: Oracle, wrap: func(i int, l transport.Link) transport.Link {
		if i == liar {
			return lyingLink{Link: l, only: &only}
		}
		return l
	}}, workload)
	requireHonestOutcome(t, got.procs, liar, consDigest(t, workload))
	steady := got.ops[lieRound-1]
	if got.ops[lieRound] <= steady {
		t.Errorf("round %d cost %d ops, no more than an honest round's %d: the lie forced no fallback", lieRound, got.ops[lieRound], steady)
	}
	for r := lieRound + 2; r < len(got.ops); r++ {
		if got.ops[r] > steady {
			t.Errorf("round %d cost %d ops, an honest round costs %d: a decode fell back again (per round: %v)", r, got.ops[r], steady, got.ops)
		}
	}
}

// forgingLink delivers, after the real traffic of every tick, result
// frames no honest peer would send: for the round and batch its node is
// collecting (read off the node's own result broadcast), but from a sender
// outside the cluster, from a negative sender, and — under a real peer's
// id — with the wrong length.
type forgingLink struct {
	transport.Link
	round int
	tag   [32]byte
}

func (l *forgingLink) Broadcast(kind string, payload []byte) error {
	if kind == resultKind {
		l.round, l.tag = int(binary.LittleEndian.Uint64(payload)), [32]byte(payload[8:40])
	}
	return l.Link.Broadcast(kind, payload)
}

func (l *forgingLink) Step() ([]transport.Message, error) {
	msgs, err := l.Link.Step()
	ok := appendResult[uint64](nil, gold, l.round, l.tag, []uint64{1, 2})
	long := appendResult[uint64](nil, gold, l.round, l.tag, []uint64{1, 2, 3})
	return append(msgs,
		transport.Message{From: consN + 3, Kind: resultKind, Payload: ok},
		transport.Message{From: -1, Kind: resultKind, Payload: ok},
		transport.Message{From: 2, Kind: resultKind, Payload: long},
	), err
}

// TestRemoteIgnoresMalformedResultFrames: a result frame whose sender is
// out of range or whose length is wrong is dropped at ingest — it is
// neither indexed into the decode nor allowed to displace the sender's
// real result — so the run ends clean, with nobody accused.
func TestRemoteIgnoresMalformedResultFrames(t *testing.T) {
	workload := RandomWorkload[uint64](gold, 4, consK, 1, consSeed)
	got := runProcesses(t, processRun{kind: Oracle, wrap: func(i int, l transport.Link) transport.Link {
		if i == 0 {
			return &forgingLink{Link: l}
		}
		return l
	}}, workload)
	want := consDigest(t, workload)
	for i, p := range got.procs {
		if p.DigestSum() != want || len(p.FaultyDetected()) != 0 {
			t.Errorf("node %d digest %s detected %v, want %s and nobody", i, p.DigestSum(), p.FaultyDetected(), want)
		}
	}
}
