// Package pbft implements a single-slot Practical Byzantine Fault Tolerance
// instance — the consensus protocol the paper uses for partially
// synchronous networks (Section 3, citing Castro & Liskov). It requires
// N >= 3f+1 nodes and tolerates f Byzantine faults through three phases
// (pre-prepare, prepare, commit) with 2f+1 quorums, plus view changes with
// exponentially growing timeouts that guarantee liveness after GST.
//
// One departure from the textbook schedule: a backup that enters the
// instance's start view holding a value of its own (Config.Value)
// broadcasts its prepare for that value's digest at once, instead of a
// tick later on the leader's pre-prepare. A CSM cluster running a seeded
// workload proposes identical bytes from every node, so the prepares and
// the pre-prepare cross on the wire and a node is prepared after one tick
// and decided after two, not three. Nothing else moves. Prepared still
// needs the leader's pre-prepare with the same digest, 2f+1 prepares for
// it, and this node's own prepare among them; a pre-prepare that arrives
// after its votes re-runs the quorum checks. Safety rests on the same
// invariant as before: an honest node sends one prepare per view
// (sentPrepare), so two prepare quorums of one view share an honest node
// and cannot name different digests. A backup whose value differs from
// the leader's has spent its one prepare and does not prepare the
// leader's value in that view; if too few backups agree with the leader
// the start view times out and the view change proceeds as usual, every
// later view preparing only the new leader's value. Prepared exposes the
// prepared value so a caller can start work on it before the decision
// (Castro & Liskov's tentative execution), checking it against Decided.
//
// Participants are written against consensus.Transport, so one instance
// runs identically over the simulated lock-step network and over a
// transport.Link into a real TCP cluster. All messages use the fixed
// binary encodings of the consensus package (no gob on the wire), which
// keeps view-change blob signatures verifiable across transports.
package pbft

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"codedsm/internal/consensus"
	"codedsm/internal/ints"
	"codedsm/internal/transport"
)

// Message kinds on the wire.
const (
	kindPrePrepare = "pbft-preprepare"
	kindPrepare    = "pbft-prepare"
	kindCommit     = "pbft-commit"
	kindViewChange = "pbft-viewchange"
	kindNewView    = "pbft-newview"
)

// Config configures one PBFT participant.
type Config struct {
	// Transport carries this node's broadcasts and blob signatures. Both
	// consensus.NewNetTransport (simulated network) and a transport.Link
	// (one real process per node) satisfy it.
	Transport consensus.Transport
	// Slot disambiguates concurrent instances.
	Slot uint64
	// MaxFaults is f; the cluster must have N >= 3f+1 nodes.
	MaxFaults int
	// Value is this node's own proposal: a leader proposes it, and a
	// backup prepares it on entering the start view (see the package
	// comment). Nil means a backup waits for the leader's pre-prepare.
	Value []byte
	// BaseTimeout is the initial view's timeout in rounds (doubles per
	// view). Defaults to 6.
	BaseTimeout int
	// StartView is the view the instance begins in (leader = StartView mod
	// N). A sequence of instances can hand the view a previous instance
	// decided in to the next one, so a crashed low-view leader is paid for
	// with one view change instead of one per instance. Defaults to 0.
	StartView int
}

// Node is one PBFT participant; it implements consensus.Node.
type Node struct {
	cfg  Config
	tr   consensus.Transport
	id   transport.NodeID
	n, f int

	view       int
	timer      int
	targetView int // nonzero: view we are trying to change into

	prePrepared map[int][]byte                    // view -> value proposed by leader
	prepares    map[int]map[[32]byte]map[int]bool // view -> digest -> senders
	commits     map[int]map[[32]byte]map[int]bool
	vcs         map[int]map[int]consensus.ViewChangeMsg // newView -> sender -> VC
	sentPrepare map[int][32]byte                        // view -> the one digest this node prepared
	sentCommit  map[int]bool

	preparedView  int
	preparedValue []byte

	decided []byte
	done    bool
}

var _ consensus.Node = (*Node)(nil)

// New creates a PBFT participant.
func New(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("pbft: nil transport")
	}
	if cfg.MaxFaults < 0 {
		return nil, fmt.Errorf("pbft: negative MaxFaults")
	}
	if cfg.Transport.N() < 3*cfg.MaxFaults+1 {
		return nil, fmt.Errorf("pbft: need N >= 3f+1, got N=%d f=%d", cfg.Transport.N(), cfg.MaxFaults)
	}
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = 6
	}
	if cfg.BaseTimeout < 1 {
		return nil, fmt.Errorf("pbft: BaseTimeout must be positive")
	}
	if cfg.StartView < 0 {
		return nil, fmt.Errorf("pbft: negative StartView")
	}
	return &Node{
		cfg:          cfg,
		tr:           cfg.Transport,
		id:           cfg.Transport.Self(),
		n:            cfg.Transport.N(),
		f:            cfg.MaxFaults,
		view:         cfg.StartView,
		prePrepared:  make(map[int][]byte),
		prepares:     make(map[int]map[[32]byte]map[int]bool),
		commits:      make(map[int]map[[32]byte]map[int]bool),
		vcs:          make(map[int]map[int]consensus.ViewChangeMsg),
		sentPrepare:  make(map[int][32]byte),
		sentCommit:   make(map[int]bool),
		preparedView: -1,
	}, nil
}

// Leader returns the designated leader of a view.
func Leader(view, n int) transport.NodeID { return transport.NodeID(view % n) }

// quorum is the 2f+1 threshold.
func (nd *Node) quorum() int { return 2*nd.f + 1 }

func digestOf(value []byte) [32]byte { return sha256.Sum256(value) }

// vcSignContent is the blob covered by a view-change signature.
func vcSignContent(slot uint64, newView, preparedView int, preparedValue []byte) []byte {
	var buf bytes.Buffer
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], slot)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(int64(newView)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(int64(preparedView)))
	buf.Write(hdr[:])
	buf.Write(preparedValue)
	return buf.Bytes()
}

// Tick implements consensus.Node.
func (nd *Node) Tick(inbox []transport.Message) error {
	if nd.done {
		// Keep answering nothing; peers already have our votes.
		return nil
	}
	if nd.timer == 0 && nd.view == nd.cfg.StartView {
		if err := nd.enterStartView(); err != nil {
			return err
		}
	}
	for _, m := range inbox {
		if err := nd.handle(m); err != nil {
			return err
		}
	}
	if nd.done {
		return nil
	}
	nd.timer++
	current := nd.view
	if nd.targetView > current {
		current = nd.targetView
	}
	if nd.timer >= nd.timeoutFor(current) {
		// Either the current view's leader stalled, or the view change we
		// joined did not complete (its leader is faulty too): escalate.
		if err := nd.sendViewChange(current + 1); err != nil {
			return err
		}
	}
	return nil
}

// timeoutFor doubles per view past the start view, giving liveness after
// GST.
func (nd *Node) timeoutFor(view int) int {
	t := nd.cfg.BaseTimeout
	for i := nd.cfg.StartView; i < view && t < 1<<20; i++ {
		t *= 2
	}
	return t
}

// enterStartView opens the instance: the leader pre-prepares its value,
// and a backup holding a value prepares it without waiting for the
// pre-prepare (see the package comment).
func (nd *Node) enterStartView() error {
	if Leader(nd.view, nd.n) != nd.id {
		if _, sent := nd.sentPrepare[nd.view]; sent || nd.cfg.Value == nil {
			return nil
		}
		return nd.prepare(nd.view, digestOf(nd.cfg.Value))
	}
	value := nd.cfg.Value
	if nd.preparedValue != nil {
		value = nd.preparedValue
	}
	pp := consensus.PrePrepareMsg{Slot: nd.cfg.Slot, View: nd.view, Value: value}
	if err := nd.tr.Broadcast(kindPrePrepare, consensus.AppendPrePrepareMsg(nil, pp)); err != nil {
		return err
	}
	// Leader treats its own proposal as pre-prepared and prepares it.
	return nd.onPrePrepare(pp, nd.id)
}

// prepare broadcasts this node's one prepare of the view and counts it.
func (nd *Node) prepare(view int, digest [32]byte) error {
	nd.sentPrepare[view] = digest
	vote := consensus.VoteMsg{Slot: nd.cfg.Slot, View: view, Digest: digest}
	if err := nd.tr.Broadcast(kindPrepare, consensus.AppendVoteMsg(nil, vote)); err != nil {
		return err
	}
	return nd.onVote(kindPrepare, vote, int(nd.id))
}

func (nd *Node) handle(m transport.Message) error {
	switch m.Kind {
	case kindPrePrepare:
		pp, err := consensus.DecodePrePrepareMsg(m.Payload)
		if err != nil || pp.Slot != nd.cfg.Slot {
			return nil
		}
		return nd.onPrePrepare(pp, m.From)
	case kindPrepare, kindCommit:
		v, err := consensus.DecodeVoteMsg(m.Payload)
		if err != nil || v.Slot != nd.cfg.Slot {
			return nil
		}
		return nd.onVote(m.Kind, v, int(m.From))
	case kindViewChange:
		vc, err := consensus.DecodeViewChangeMsg(m.Payload)
		if err != nil || vc.Slot != nd.cfg.Slot {
			return nil
		}
		return nd.onViewChange(vc, m.From)
	case kindNewView:
		nv, err := consensus.DecodeNewViewMsg(m.Payload)
		if err != nil || nv.Slot != nd.cfg.Slot {
			return nil
		}
		return nd.onNewView(nv, m.From)
	}
	return nil
}

func (nd *Node) onPrePrepare(pp consensus.PrePrepareMsg, from transport.NodeID) error {
	if pp.View < nd.view || Leader(pp.View, nd.n) != from {
		return nil
	}
	if prev, ok := nd.prePrepared[pp.View]; ok {
		// Only the first value per view counts; a conflicting one is the
		// leader equivocating and is ignored (the view will time out).
		if !bytes.Equal(prev, pp.Value) {
			return nil
		}
	} else {
		nd.prePrepared[pp.View] = append([]byte(nil), pp.Value...)
	}
	if pp.View > nd.view {
		// We lag; the pre-prepare is buffered, the prepare goes out once
		// the view change completes.
		return nil
	}
	digest := digestOf(pp.Value)
	if _, sent := nd.sentPrepare[pp.View]; !sent && nd.targetView <= nd.view {
		return nd.prepare(pp.View, digest)
	}
	// No prepare to send (a backup spent its one at the start view, or a
	// view change is pending): the votes may already hold a quorum that
	// was only waiting for this pre-prepare.
	return nd.advance(pp.View, digest)
}

func (nd *Node) onVote(kind string, v consensus.VoteMsg, from int) error {
	table := nd.prepares
	if kind == kindCommit {
		table = nd.commits
	}
	byDigest, ok := table[v.View]
	if !ok {
		byDigest = make(map[[32]byte]map[int]bool)
		table[v.View] = byDigest
	}
	senders, ok := byDigest[v.Digest]
	if !ok {
		senders = make(map[int]bool)
		byDigest[v.Digest] = senders
	}
	senders[from] = true
	return nd.advance(v.View, v.Digest)
}

// advance takes view's instance as far as the votes for digest allow:
// prepared (2f+1 prepares, this node's own among them) sends the commit,
// a commit quorum decides. Both need the leader's pre-prepare of that
// digest, which may arrive after the votes.
func (nd *Node) advance(view int, digest [32]byte) error {
	prepares, commits := len(nd.prepares[view][digest]), len(nd.commits[view][digest])
	if nd.done || (prepares < nd.quorum() && commits < nd.quorum()) {
		return nil
	}
	value, have := nd.prePrepared[view]
	if !have || digestOf(value) != digest {
		return nil // quorum on a value we have not seen yet
	}
	if mine, sent := nd.sentPrepare[view]; prepares >= nd.quorum() && sent && mine == digest &&
		!nd.sentCommit[view] && view == nd.view && nd.targetView <= nd.view {
		// Prepared: remember for view changes.
		if view > nd.preparedView {
			nd.preparedView = view
			nd.preparedValue = append([]byte(nil), value...)
		}
		nd.sentCommit[view] = true
		vote := consensus.VoteMsg{Slot: nd.cfg.Slot, View: view, Digest: digest}
		if err := nd.tr.Broadcast(kindCommit, consensus.AppendVoteMsg(nil, vote)); err != nil {
			return err
		}
		return nd.onVote(kindCommit, vote, int(nd.id))
	}
	if commits >= nd.quorum() {
		nd.decided = append([]byte(nil), value...)
		nd.done = true
	}
	return nil
}

func (nd *Node) sendViewChange(newView int) error {
	if newView <= nd.view || newView <= nd.targetView {
		return nil
	}
	nd.targetView = newView
	nd.timer = 0 // give the new view's leader a full timeout to assemble it
	vc := consensus.ViewChangeMsg{
		Slot:          nd.cfg.Slot,
		NewView:       newView,
		PreparedView:  nd.preparedView,
		PreparedValue: nd.preparedValue,
		Sender:        uint64(nd.id),
	}
	vc.Sig = nd.tr.SignBlob("pbft-vc", vcSignContent(vc.Slot, vc.NewView, vc.PreparedView, vc.PreparedValue))
	if err := nd.tr.Broadcast(kindViewChange, consensus.AppendViewChangeMsg(nil, vc)); err != nil {
		return err
	}
	return nd.onViewChange(vc, nd.id)
}

// validVC verifies a view-change message's blob signature.
func (nd *Node) validVC(vc consensus.ViewChangeMsg) bool {
	return nd.tr.VerifyBlob(transport.NodeID(vc.Sender), "pbft-vc",
		vcSignContent(vc.Slot, vc.NewView, vc.PreparedView, vc.PreparedValue), vc.Sig)
}

func (nd *Node) onViewChange(vc consensus.ViewChangeMsg, from transport.NodeID) error {
	if vc.NewView <= nd.view || transport.NodeID(vc.Sender) != from || !nd.validVC(vc) {
		return nil
	}
	bySender, ok := nd.vcs[vc.NewView]
	if !ok {
		bySender = make(map[int]consensus.ViewChangeMsg)
		nd.vcs[vc.NewView] = bySender
	}
	bySender[int(vc.Sender)] = vc
	// Join the view change once f+1 nodes demand it (we cannot all be wrong).
	if len(bySender) >= nd.f+1 && vc.NewView > nd.targetView {
		if err := nd.sendViewChange(vc.NewView); err != nil {
			return err
		}
	}
	// New leader assembles the new view from 2f+1 view changes.
	if len(bySender) >= nd.quorum() && Leader(vc.NewView, nd.n) == nd.id {
		return nd.sendNewView(vc.NewView)
	}
	return nil
}

func (nd *Node) sendNewView(view int) error {
	// Assemble the proof in sorted sender order: the slice is encoded into
	// the new-view message, so its order is part of the wire bytes, and
	// the prepared-value fold below must not tie-break on map order.
	proof := make([]consensus.ViewChangeMsg, 0, len(nd.vcs[view]))
	for _, sender := range ints.SortedMapKeys(nd.vcs[view]) {
		proof = append(proof, nd.vcs[view][sender])
	}
	// Adopt the highest prepared value among the proof, else our own.
	value := nd.cfg.Value
	best := -1
	for _, vc := range proof {
		if vc.PreparedView > best && vc.PreparedValue != nil {
			best = vc.PreparedView
			value = vc.PreparedValue
		}
	}
	nv := consensus.NewViewMsg{Slot: nd.cfg.Slot, View: view, Value: value, Proof: proof}
	if err := nd.tr.Broadcast(kindNewView, consensus.AppendNewViewMsg(nil, nv)); err != nil {
		return err
	}
	return nd.onNewView(nv, nd.id)
}

func (nd *Node) onNewView(nv consensus.NewViewMsg, from transport.NodeID) error {
	if nv.View <= nd.view || Leader(nv.View, nd.n) != from {
		return nil
	}
	// Verify 2f+1 valid, distinct view-change signatures for this view.
	seen := make(map[uint64]bool)
	best := -1
	var bestValue []byte
	for _, vc := range nv.Proof {
		if vc.Slot != nd.cfg.Slot || vc.NewView != nv.View || seen[vc.Sender] || !nd.validVC(vc) {
			continue
		}
		seen[vc.Sender] = true
		if vc.PreparedView > best && vc.PreparedValue != nil {
			best = vc.PreparedView
			bestValue = vc.PreparedValue
		}
	}
	if len(seen) < nd.quorum() {
		return nil
	}
	// Safety: if some VC proves a prepared value, the leader must carry it.
	if bestValue != nil && digestOf(nv.Value) != digestOf(bestValue) {
		return nil
	}
	// Enter the new view.
	nd.view = nv.View
	if nd.targetView <= nv.View {
		nd.targetView = 0
	}
	nd.timer = 0
	return nd.onPrePrepare(consensus.PrePrepareMsg{Slot: nd.cfg.Slot, View: nv.View, Value: nv.Value}, from)
}

// Decided implements consensus.Node.
func (nd *Node) Decided() ([]byte, bool) {
	if !nd.done {
		return nil, false
	}
	return nd.decided, true
}

// Prepared returns the value this node has prepared in its highest
// prepared view. A prepared value is not decided: a view change can
// still replace it, so work started on it must be checked against
// Decided.
func (nd *Node) Prepared() ([]byte, bool) {
	return nd.preparedValue, nd.preparedView >= 0
}

// View returns the node's current view; after a decision it is the view
// the value was committed in, which callers running a sequence of
// instances can feed into the next instance's StartView.
func (nd *Node) View() int { return nd.view }
