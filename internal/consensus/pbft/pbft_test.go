package pbft

import (
	"bytes"
	"testing"

	"codedsm/internal/consensus"
	"codedsm/internal/transport"
)

func setup(t *testing.T, n int, mode transport.Mode, gst int, seed uint64) *transport.Network {
	t.Helper()
	net, err := transport.New(transport.Config{N: n, Mode: mode, GST: gst, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func honest(t *testing.T, net *transport.Network, id, f int, value []byte) *Node {
	t.Helper()
	tr, err := consensus.NewNetTransport(net, transport.NodeID(id))
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{
		Transport: tr, Slot: 1, MaxFaults: f, Value: value,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

type silent struct{}

func (silent) Tick(inbox []transport.Message) error { return nil }
func (silent) Decided() ([]byte, bool)              { return nil, true }

func checkAgreement(t *testing.T, nodes []consensus.Node, waitFor []int) []byte {
	t.Helper()
	var first []byte
	for _, i := range waitFor {
		got, ok := nodes[i].Decided()
		if !ok {
			t.Fatalf("node %d undecided", i)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(first, got) {
			t.Fatalf("disagreement: node %d decided %q, others %q", i, got, first)
		}
	}
	return first
}

func TestAllHonestSync(t *testing.T) {
	const n, f = 4, 1
	net := setup(t, n, transport.Sync, 0, 1)
	nodes := make([]consensus.Node, n)
	waitFor := make([]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = honest(t, net, i, f, []byte("LEADER-VALUE"))
		waitFor[i] = i
	}
	if err := consensus.Run(net, nodes, waitFor, 30); err != nil {
		t.Fatal(err)
	}
	if got := checkAgreement(t, nodes, waitFor); string(got) != "LEADER-VALUE" {
		t.Errorf("decided %q", got)
	}
}

// TestEqualProposalsRoundCount pins how many lock-step rounds one
// instance takes when every node proposes the same value, as every node
// of a RunWorkload cluster does: consensus.Run returns after the round
// in which the last node decided.
func TestEqualProposalsRoundCount(t *testing.T) {
	const n, f = 4, 1
	net := setup(t, n, transport.Sync, 0, 1)
	nodes := make([]consensus.Node, n)
	waitFor := make([]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = honest(t, net, i, f, []byte("SAME"))
		waitFor[i] = i
	}
	if err := consensus.Run(net, nodes, waitFor, 30); err != nil {
		t.Fatal(err)
	}
	if got := checkAgreement(t, nodes, waitFor); string(got) != "SAME" {
		t.Errorf("decided %q", got)
	}
	if got := net.Round(); got != 3 {
		t.Errorf("decided after %d rounds, pinned 3", got)
	}
}

// TestStartViewPrepareIsSpent: every node prepares its own value on
// entering the start view and has then spent its one prepare of the view.
// A leader whose value no backup holds gets only its own prepare, so
// nobody prepares in view 0, the view times out, and view 1 decides the
// backups' value everywhere. A backup whose value differs from everyone
// else's never becomes prepared, yet decides the others' value from their
// commit quorum in view 0.
func TestStartViewPrepareIsSpent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		values   [4]string
		view     int    // the view the value is decided in
		prepared [4]int // each node's highest prepared view (-1: none)
	}{
		{"leader alone", [4]string{"LEADER", "V", "V", "V"}, 1, [4]int{1, 1, 1, 1}},
		{"one backup alone", [4]string{"V", "V", "V", "ODD"}, 0, [4]int{0, 0, 0, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := setup(t, 4, transport.Sync, 0, 9)
			nodes := make([]consensus.Node, 4)
			waitFor := []int{0, 1, 2, 3}
			for i, v := range tc.values {
				nodes[i] = honest(t, net, i, 1, []byte(v))
			}
			if err := consensus.Run(net, nodes, waitFor, 80); err != nil {
				t.Fatal(err)
			}
			if got := checkAgreement(t, nodes, waitFor); string(got) != "V" {
				t.Errorf("decided %q, want V", got)
			}
			for i, n := range nodes {
				nd := n.(*Node)
				value, ok := nd.Prepared()
				if nd.View() != tc.view || nd.preparedView != tc.prepared[i] || ok != (tc.prepared[i] >= 0) || ok && string(value) != "V" {
					t.Errorf("node %d: view %d, prepared %q in view %d; want view %d, V in view %d",
						i, nd.View(), value, nd.preparedView, tc.view, tc.prepared[i])
				}
			}
		})
	}
}

func TestSilentLeaderViewChange(t *testing.T) {
	// Node 0 (view-0 leader) is silent; the protocol must change views and
	// decide node 1's proposal.
	const n, f = 4, 1
	net := setup(t, n, transport.Sync, 0, 2)
	nodes := make([]consensus.Node, n)
	nodes[0] = silent{}
	waitFor := []int{1, 2, 3}
	for _, i := range waitFor {
		nodes[i] = honest(t, net, i, f, []byte{byte('A' + i)})
	}
	if err := consensus.Run(net, nodes, waitFor, 80); err != nil {
		t.Fatal(err)
	}
	got := checkAgreement(t, nodes, waitFor)
	if string(got) != "B" {
		t.Errorf("decided %q, want view-1 leader's proposal B", got)
	}
	if v := nodes[1].(*Node).View(); v != 1 {
		t.Errorf("node 1 in view %d, want 1", v)
	}
}

func TestTwoSilentLeaders(t *testing.T) {
	// N = 7, f = 2: leaders of views 0 and 1 both silent; view 2 decides.
	const n, f = 7, 2
	net := setup(t, n, transport.Sync, 0, 3)
	nodes := make([]consensus.Node, n)
	nodes[0], nodes[1] = silent{}, silent{}
	waitFor := []int{2, 3, 4, 5, 6}
	for _, i := range waitFor {
		nodes[i] = honest(t, net, i, f, []byte{byte('A' + i)})
	}
	if err := consensus.Run(net, nodes, waitFor, 200); err != nil {
		t.Fatal(err)
	}
	got := checkAgreement(t, nodes, waitFor)
	if string(got) != "C" {
		t.Errorf("decided %q, want view-2 leader's proposal C", got)
	}
}

func TestPartialSynchronyDecidesAfterGST(t *testing.T) {
	// Messages are delayed arbitrarily until GST; PBFT must still decide
	// (possibly after view changes) once the network stabilizes.
	const n, f, gst = 4, 1, 12
	net := setup(t, n, transport.PartialSync, gst, 4)
	nodes := make([]consensus.Node, n)
	waitFor := make([]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = honest(t, net, i, f, []byte("PSYNC"))
		waitFor[i] = i
	}
	if err := consensus.Run(net, nodes, waitFor, 300); err != nil {
		t.Fatal(err)
	}
	if got := checkAgreement(t, nodes, waitFor); string(got) != "PSYNC" {
		t.Errorf("decided %q", got)
	}
}

func TestEquivocatingLeaderSafety(t *testing.T) {
	// A Byzantine leader sends different pre-prepares to different nodes
	// (point-to-point network, equivocation allowed). With 2f+1 quorums no
	// two honest nodes can commit different values; eventually a view
	// change installs an honest leader.
	const n, f = 4, 1
	net := setup(t, n, transport.Sync, 0, 5)
	ep, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]consensus.Node, n)
	nodes[0] = &equivLeader{ep: ep, slot: 1}
	waitFor := []int{1, 2, 3}
	for _, i := range waitFor {
		nodes[i] = honest(t, net, i, f, []byte{byte('A' + i)})
	}
	if err := consensus.Run(net, nodes, waitFor, 120); err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, nodes, waitFor)
}

// equivLeader sends pre-prepare "X" to node 1 and "Y" to nodes 2..: with
// N=4, f=1 neither value can gather 2f+1=3 prepares from honest nodes alone
// plus the leader's, since honest holders of X are 1 and of Y are 2 — the
// leader adds its vote to both but 1+1 < 3 and 2+1 = 3... the second may
// prepare, which is fine: safety only forbids conflicting commits.
type equivLeader struct {
	ep   *transport.Endpoint
	slot uint64
	sent bool
}

func (e *equivLeader) Tick(inbox []transport.Message) error {
	if e.sent {
		return nil
	}
	e.sent = true
	payloadX := consensus.AppendPrePrepareMsg(nil, consensus.PrePrepareMsg{Slot: e.slot, View: 0, Value: []byte("X")})
	payloadY := consensus.AppendPrePrepareMsg(nil, consensus.PrePrepareMsg{Slot: e.slot, View: 0, Value: []byte("Y")})
	if err := e.ep.Send(1, kindPrePrepare, payloadX); err != nil {
		return err
	}
	for to := transport.NodeID(2); int(to) < 4; to++ {
		if err := e.ep.Send(to, kindPrePrepare, payloadY); err != nil {
			return err
		}
	}
	return nil
}

func (e *equivLeader) Decided() ([]byte, bool) { return nil, true }

func TestConfigValidation(t *testing.T) {
	net := setup(t, 4, transport.Sync, 0, 6)
	tr, err := consensus.NewNetTransport(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Transport: nil}); err == nil {
		t.Error("nil transport should fail")
	}
	if _, err := New(Config{Transport: tr, MaxFaults: 2}); err == nil {
		t.Error("N < 3f+1 should fail")
	}
	if _, err := New(Config{Transport: tr, MaxFaults: -1}); err == nil {
		t.Error("negative f should fail")
	}
	if _, err := New(Config{Transport: tr, MaxFaults: 1, BaseTimeout: -3}); err == nil {
		t.Error("negative timeout should fail")
	}
	if _, err := New(Config{Transport: tr, MaxFaults: 1, StartView: -1}); err == nil {
		t.Error("negative StartView should fail")
	}
	if _, err := consensus.NewNetTransport(net, 9); err == nil {
		t.Error("bad ID should fail")
	}
}

func TestLeaderRotation(t *testing.T) {
	if Leader(0, 4) != 0 || Leader(1, 4) != 1 || Leader(4, 4) != 0 || Leader(6, 4) != 2 {
		t.Error("leader rotation wrong")
	}
}

func TestGarbageIgnored(t *testing.T) {
	const n, f = 4, 1
	net := setup(t, n, transport.Sync, 0, 7)
	ep, err := net.Endpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]consensus.Node, n)
	waitFor := make([]int, n)
	for i := 0; i < n; i++ {
		nodes[i] = honest(t, net, i, f, []byte("V"))
		waitFor[i] = i
	}
	for _, kind := range []string{kindPrePrepare, kindPrepare, kindCommit, kindViewChange, kindNewView} {
		if err := ep.Broadcast(kind, []byte("garbage")); err != nil {
			t.Fatal(err)
		}
	}
	if err := consensus.Run(net, nodes, waitFor, 40); err != nil {
		t.Fatal(err)
	}
	if got := checkAgreement(t, nodes, waitFor); string(got) != "V" {
		t.Errorf("decided %q", got)
	}
}

func TestForgedViewChangeRejected(t *testing.T) {
	// A Byzantine node fabricates view-change messages claiming to be from
	// others (bad blob signatures): the new leader must not assemble a new
	// view from them.
	net := setup(t, 4, transport.Sync, 0, 8)
	nd := honest(t, net, 1, 1, []byte("V"))
	fake := consensus.ViewChangeMsg{Slot: 1, NewView: 1, PreparedView: -1, Sender: 2, Sig: []byte("bad")}
	if nd.validVC(fake) {
		t.Error("invalid VC signature accepted")
	}
}
