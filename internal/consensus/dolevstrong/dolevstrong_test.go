package dolevstrong

import (
	"bytes"
	"testing"

	"codedsm/internal/consensus"
	"codedsm/internal/transport"
)

// byzEquivocator is a Byzantine sender that sends value A to the first half
// of the network and value B to the second half, each with a valid
// signature chain of length 1.
type byzEquivocator struct {
	net  *transport.Network
	ep   *transport.Endpoint
	slot uint64
	sent bool
}

func (b *byzEquivocator) Tick(inbox []transport.Message) error {
	if b.sent {
		return nil
	}
	b.sent = true
	n := b.net.N()
	for to := 0; to < n; to++ {
		if transport.NodeID(to) == b.ep.ID() {
			continue
		}
		value := []byte("AAA")
		if to >= n/2 {
			value = []byte("BBB")
		}
		sig := b.ep.SignBlob(signContext(b.slot), value)
		payload, err := consensus.AppendChainMsg(nil, consensus.ChainMsg{
			Slot: b.slot, Value: value,
			Signers: []uint64{uint64(b.ep.ID())}, Sigs: [][]byte{sig},
		})
		if err != nil {
			return err
		}
		if err := b.ep.Send(transport.NodeID(to), msgKind, payload); err != nil {
			return err
		}
	}
	return nil
}

func (b *byzEquivocator) Decided() ([]byte, bool) { return nil, true }

// silent never sends anything.
type silent struct{}

func (silent) Tick(inbox []transport.Message) error { return nil }
func (silent) Decided() ([]byte, bool)              { return nil, true }

func setup(t *testing.T, n int, seed uint64) *transport.Network {
	t.Helper()
	net, err := transport.New(transport.Config{N: n, Mode: transport.Sync, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func honest(t *testing.T, net *transport.Network, id, sender int, slot uint64, maxFaults int, value []byte) *Node {
	t.Helper()
	tr, err := consensus.NewNetTransport(net, transport.NodeID(id))
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		Transport: tr, Sender: transport.NodeID(sender),
		Slot: slot, MaxFaults: maxFaults, Value: value, Default: []byte("DEFAULT"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

func TestHonestSenderAllAgree(t *testing.T) {
	const n, b = 7, 2
	net := setup(t, n, 1)
	nodes := make([]consensus.Node, n)
	honestIdx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		nodes[i] = honest(t, net, i, 0, 1, b, []byte("VALUE"))
		honestIdx = append(honestIdx, i)
	}
	if err := consensus.Run(net, nodes, honestIdx, Rounds(b)+1); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		got, ok := nd.Decided()
		if !ok || string(got) != "VALUE" {
			t.Errorf("node %d decided %q ok=%v", i, got, ok)
		}
	}
}

func TestEquivocatingSenderConsistency(t *testing.T) {
	// The Byzantine sender equivocates; all honest nodes must still decide
	// the SAME value (consistency). With signature relaying they detect the
	// equivocation and fall back to the default.
	const n, b = 7, 2
	net := setup(t, n, 2)
	nodes := make([]consensus.Node, n)
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	nodes[0] = &byzEquivocator{net: net, ep: ep, slot: 1}
	waitFor := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		nodes[i] = honest(t, net, i, 0, 1, b, nil)
		waitFor = append(waitFor, i)
	}
	if err := consensus.Run(net, nodes, waitFor, Rounds(b)+1); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for _, i := range waitFor {
		got, ok := nodes[i].Decided()
		if !ok {
			t.Fatalf("node %d undecided", i)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Fatalf("nodes decided differently: %q vs %q", first, got)
		}
	}
	if string(first) != "DEFAULT" {
		t.Errorf("equivocation should yield the default, got %q", first)
	}
}

func TestSilentSenderDefaults(t *testing.T) {
	const n, b = 5, 1
	net := setup(t, n, 3)
	nodes := make([]consensus.Node, n)
	nodes[0] = silent{}
	waitFor := []int{1, 2, 3, 4}
	for _, i := range waitFor {
		nodes[i] = honest(t, net, i, 0, 2, b, nil)
	}
	if err := consensus.Run(net, nodes, waitFor, Rounds(b)+1); err != nil {
		t.Fatal(err)
	}
	for _, i := range waitFor {
		got, _ := nodes[i].Decided()
		if string(got) != "DEFAULT" {
			t.Errorf("node %d decided %q, want DEFAULT", i, got)
		}
	}
}

func TestHighFaultTolerance(t *testing.T) {
	// Dolev-Strong works for any b < N; use b = N-2 with N=5 and all but
	// one relay silent. The honest sender's chain still reaches everyone
	// directly in round 1.
	const n, b = 5, 3
	net := setup(t, n, 4)
	nodes := make([]consensus.Node, n)
	nodes[0] = honest(t, net, 0, 0, 3, b, []byte("V"))
	nodes[1] = honest(t, net, 1, 0, 3, b, nil)
	nodes[2], nodes[3], nodes[4] = silent{}, silent{}, silent{}
	if err := consensus.Run(net, nodes, []int{0, 1}, Rounds(b)+1); err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[1].Decided()
	if string(got) != "V" {
		t.Errorf("node 1 decided %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	net := setup(t, 3, 5)
	tr, err := consensus.NewNetTransport(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Transport: nil}); err == nil {
		t.Error("nil transport should fail")
	}
	if _, err := New(Config{Transport: tr, MaxFaults: 3}); err == nil {
		t.Error("MaxFaults >= N should fail")
	}
	if _, err := New(Config{Transport: tr, MaxFaults: -1}); err == nil {
		t.Error("negative MaxFaults should fail")
	}
	if _, err := New(Config{Transport: tr, Sender: 7, MaxFaults: 1}); err == nil {
		t.Error("bad sender should fail")
	}
	if _, err := consensus.NewNetTransport(net, 7); err == nil {
		t.Error("bad node ID should fail")
	}
}

func TestRunValidation(t *testing.T) {
	net := setup(t, 2, 6)
	if err := consensus.Run(net, nil, nil, 5); err == nil {
		t.Error("empty waitFor should fail")
	}
	// Undecidable: two silent nodes.
	nodes := []consensus.Node{honest(t, net, 0, 1, 9, 0, nil), silent{}}
	_ = nodes[0]
	err := consensus.Run(net, []consensus.Node{&neverDecides{}, silent{}}, []int{0}, 3)
	if err == nil {
		t.Error("expected ErrNoDecision")
	}
}

type neverDecides struct{}

func (neverDecides) Tick(inbox []transport.Message) error { return nil }
func (neverDecides) Decided() ([]byte, bool)              { return nil, false }

func TestGarbagePayloadIgnored(t *testing.T) {
	const n, b = 4, 1
	net := setup(t, n, 7)
	nodes := make([]consensus.Node, n)
	nodes[0] = honest(t, net, 0, 0, 5, b, []byte("OK"))
	for i := 1; i < n; i++ {
		nodes[i] = honest(t, net, i, 0, 5, b, nil)
	}
	// Byzantine garbage injected alongside the protocol.
	ep, err := net.Endpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Broadcast(msgKind, []byte("not gob")); err != nil {
		t.Fatal(err)
	}
	if err := consensus.Run(net, nodes, []int{0, 1, 2, 3}, Rounds(b)+1); err != nil {
		t.Fatal(err)
	}
	got, _ := nodes[1].Decided()
	if string(got) != "OK" {
		t.Errorf("decided %q", got)
	}
}

// countingTransport counts the signature checks a participant hands its
// transport.
type countingTransport struct {
	consensus.Transport
	verifies *int
}

func (c countingTransport) VerifyBlob(id transport.NodeID, context string, data, sig []byte) bool {
	*c.verifies++
	return c.Transport.VerifyBlob(id, context, data, sig)
}

// verifyCount runs one honest instance of n nodes tolerating b faults,
// sender 0, and returns the VerifyBlob calls its participants made.
func verifyCount(t *testing.T, n, b int) int {
	t.Helper()
	net := setup(t, n, 8)
	verifies := 0
	nodes := make([]consensus.Node, n)
	waitFor := make([]int, n)
	for i := range nodes {
		tr, err := consensus.NewNetTransport(net, transport.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		nd, err := New(Config{
			Transport: countingTransport{tr, &verifies}, Sender: 0,
			Slot: 1, MaxFaults: b, Value: []byte("VALUE"), Default: []byte("DEFAULT"),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], waitFor[i] = nd, i
	}
	if err := consensus.Run(net, nodes, waitFor, Rounds(b)+1); err != nil {
		t.Fatal(err)
	}
	for i, nd := range nodes {
		if got, ok := nd.Decided(); !ok || string(got) != "VALUE" {
			t.Fatalf("node %d decided %q ok=%v", i, got, ok)
		}
	}
	return verifies
}

// TestVerifyCount pins the signature checks of one honest N=7, b=2
// instance: the sender's chain reaches six nodes, six checks. Each of
// their six relays reaches the five or six nodes that did not send it,
// 36 chains of two signatures, and was 72 more checks while every
// signature of every chain was checked (78 in all); checking each
// signature once per node made those 37 (43 in all). Every one of those
// chains carries the value its receiver has already extracted, so none is
// checked now.
func TestVerifyCount(t *testing.T) {
	const pinned = 6
	if got := verifyCount(t, 7, 2); got != pinned {
		t.Errorf("%d VerifyBlob calls, pinned %d", got, pinned)
	}
}

// TestChainSignatureCheckedOnce feeds one node chains directly: a
// signature found valid is not checked again, in a later chain or the
// same one, and one found invalid is checked every time.
func TestChainSignatureCheckedOnce(t *testing.T) {
	const n, b = 4, 2
	net := setup(t, n, 9)
	value := []byte("V")
	sig := func(id int) []byte {
		ep, err := net.Endpoint(transport.NodeID(id))
		if err != nil {
			t.Fatal(err)
		}
		return ep.SignBlob(signContext(1), value)
	}
	tr, err := consensus.NewNetTransport(net, 3)
	if err != nil {
		t.Fatal(err)
	}
	verifies := 0
	nd, err := New(Config{Transport: countingTransport{tr, &verifies}, Sender: 0, Slot: 1, MaxFaults: b})
	if err != nil {
		t.Fatal(err)
	}
	chain := func(signers ...uint64) consensus.ChainMsg {
		cm := consensus.ChainMsg{Slot: 1, Value: value, Signers: signers}
		for _, s := range signers {
			cm.Sigs = append(cm.Sigs, sig(int(s)))
		}
		return cm
	}
	forged := chain(0, 1)
	forged.Sigs[1] = sig(2) // node 2's signature claimed as node 1's
	for i, step := range []struct {
		cm       consensus.ChainMsg
		valid    bool
		verifies int
	}{
		{forged, false, 2},     // the sender's signature is new, the forged one fails
		{forged, false, 1},     // only the forged one is checked again
		{chain(0, 2), true, 1}, // node 2's own signature is new
		{chain(0, 2), true, 0},
		{chain(0, 1), true, 1},
	} {
		verifies = 0
		if got := nd.validChain(step.cm, 2); got != step.valid || verifies != step.verifies {
			t.Errorf("chain %d: valid %v with %d checks, want %v with %d", i, got, verifies, step.valid, step.verifies)
		}
	}
}
