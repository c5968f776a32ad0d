package csm

import (
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
// broadcasts is corrupted before it is signed.
type lyingLink struct {
	transport.Link
}

func (l lyingLink) Broadcast(kind string, payload []byte) error {
	if kind == resultKind {
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
			l = lyingLink{l}
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
