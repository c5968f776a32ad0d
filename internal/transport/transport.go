// Package transport simulates the paper's network model (Section 2.1): a
// fully connected network of N nodes exchanging messages over
// authenticated channels, in either a synchronous mode (every message sent
// in round t is delivered at round t+1) or a partially synchronous mode
// (adversarially delayed deliveries until an unknown global stabilization
// time, after which the network is synchronous).
//
// The simulator is deterministic: a seeded RNG drives pre-GST delays, and
// all nodes run in lock step, which makes the threshold experiments of
// Table 2 exactly reproducible. The channels are authenticated
// ("authenticated Byzantine faults": arbitrary misbehaviour, but a node
// cannot forge another node's messages): the network itself is the
// channel, so a message's From is the endpoint that sent it, and a
// message injected from outside is admitted only if the network carried
// that same content from its claimed sender in a round that has not
// passed (see admit). Content that must convince a third node is signed
// with ed25519 through SignBlob/VerifyBlob.
//
// A transmission travels as one envelope: the message and the recipients
// it goes to. A broadcast is one envelope for its N-1 copies, so a
// synchronous round of N broadcasts queues N envelopes, not N(N-1)
// messages, and one that reaches every other node carries no recipient
// list at all (before GST every copy draws its own delay and is filed
// alone). Network.Envelopes walks the round's sorted envelopes once each,
// and a node's inbox (Endpoint.Deliveries) is a filter over that walk,
// not a copy. What a node receives, in which round and
// in which order is the same as if every copy had been queued on its own
// (see post and Step), and TestNetworkDeliveryContentGolden pins it.
package transport

import (
	"bytes"
	"cmp"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"

	"codedsm/internal/pool"
)

// ErrSimulationOnly is returned by non-simulated transports (the TCP
// transport of this package) for knobs that only make sense on the
// deterministic in-memory oracle: crash injection (SetDown), adversarial
// delay models (DelayFn / MaxPreGSTDelay), and broadcast-channel
// equivocation coercion (NoEquivocation). A production transport cannot
// silently no-op these — a test harness that "crashed" a node over TCP and
// got no error would be reasoning about a fault that never happened — so
// every such call fails with an error wrapping this sentinel.
var ErrSimulationOnly = errors.New("transport: knob is supported only by the simulated in-memory transport")

// NodeID identifies a node, 0..N-1.
type NodeID int

// Mode selects the timing model.
type Mode int

const (
	// Sync is the synchronous network: fixed one-round delivery latency.
	Sync Mode = iota
	// PartialSync delivers with adversarial delays before GST and one-round
	// latency afterwards.
	PartialSync
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Sync:
		return "synchronous"
	case PartialSync:
		return "partially-synchronous"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Message is a protocol message.
type Message struct {
	From    NodeID
	To      NodeID
	Round   int // the round in which it was sent
	Kind    string
	Payload []byte
}

// Config configures a simulated network.
type Config struct {
	// N is the number of nodes.
	N int
	// Mode selects synchronous or partially synchronous timing.
	Mode Mode
	// GST is the global stabilization round (PartialSync only): messages
	// sent at round >= GST are delivered with one-round latency.
	GST int
	// MaxPreGSTDelay bounds the extra adversarial delay (in rounds) applied
	// to messages sent before GST. Defaults to 3 when zero.
	MaxPreGSTDelay int
	// NoEquivocation models a broadcast (physical-radio-like) network: the
	// first payload a node emits for a given (round, kind) is the one every
	// recipient sees, so Byzantine nodes cannot send conflicting values.
	// INTERMIX requires this assumption (Section 6).
	NoEquivocation bool
	// Seed drives delays and key generation deterministically.
	Seed uint64
	// DelayFn optionally overrides the pre-GST delay for a message; it
	// must return a value in [1, MaxPreGSTDelay+1]. Used by adversarial
	// scheduling tests.
	DelayFn func(from, to NodeID, round int) int
}

// Stats aggregates network-level counters.
type Stats struct {
	MessagesDelivered uint64
	BytesDelivered    uint64
	// ForgeriesDropped counts every injected envelope the network refuses:
	// on the simulated network, an Inject whose content the network did not
	// carry from its claimed sender, whose recipient is out of range or
	// whose round has passed (see admit); on the TCP transport, a frame
	// claiming a sender or recipient its session does not cover.
	ForgeriesDropped uint64
	// RandomDelays counts pre-GST deliveries scheduled by the seeded RNG.
	// It stays zero while a DelayFn is installed: the RNG is consumed only
	// on the random-delay path, so installing or removing a DelayFn never
	// shifts the delays of messages that do not go through it.
	RandomDelays uint64
	// DroppedDown counts messages dropped because the sender or recipient
	// was marked down (crashed) at send or delivery time.
	DroppedDown uint64
	// Transmissions counts Endpoint.Send and Endpoint.Broadcast calls: one
	// per transmission, however many recipients it has and whether or not
	// a crash drops it. Inject is not a transmission. It is the signature
	// count of the paper's authenticated-broadcast cost model, one per
	// transmission, which the simulation charges without computing.
	Transmissions uint64
}

// Network is a deterministic lock-step message-passing simulator.
type Network struct {
	mu        sync.Mutex
	cfg       Config
	round     int
	rng       *rand.Rand
	pubs      []ed25519.PublicKey
	privs     []ed25519.PrivateKey
	pending   map[int][]envelope // delivery round -> envelopes
	delivered []envelope         // this round's, sorted, live recipients only
	carried   map[int][]sent     // send round -> what the network carried, in post order
	down      []bool             // crashed nodes: their traffic drops in both directions
	downCount int                // the set entries of down
	stats     Stats
	// Storage Step hands back for later rounds: the drained delivery
	// queues (spare), which post reuses for a round it opens, and the
	// record of the round Step leaves (spareSent), which record reuses.
	spare     [][]envelope
	spareSent []sent
	// arena is what is left of the block Send and Broadcast carve their
	// payload copies from (copyPayload).
	arena []byte
}

// arenaBlock is the size of the blocks payload copies are carved from,
// and arenaBlock/8 the largest payload carved; a larger one is allocated
// on its own.
const arenaBlock = 8 << 10

// sent is the content of one envelope the network carried: what its
// sender vouched for. The payload is the envelope's own immutable copy.
type sent struct {
	from    NodeID
	kind    string
	payload []byte
}

// New constructs a network of cfg.N nodes with deterministic keys.
func New(cfg Config) (*Network, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("transport: need at least one node, got %d", cfg.N)
	}
	if cfg.MaxPreGSTDelay == 0 {
		cfg.MaxPreGSTDelay = 3
	}
	if cfg.MaxPreGSTDelay < 0 {
		return nil, fmt.Errorf("transport: negative MaxPreGSTDelay %d", cfg.MaxPreGSTDelay)
	}
	n := &Network{
		cfg:     cfg,
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x5eed)),
		pending: make(map[int][]envelope),
		carried: make(map[int][]sent),
		down:    make([]bool, cfg.N),
	}
	n.pubs, n.privs = DeriveKeys(cfg.Seed, cfg.N)
	return n, nil
}

// DeriveKeys deterministically derives the cluster's N ed25519 keypairs
// from the shared cluster seed. Both the simulated network and the TCP
// transport use this derivation, so a blob signed by node i in one
// process verifies against the keys any other process derived from the
// same seed. (A deployment with real key distribution would instead load
// per-node private keys and a public-key roster from configuration; the
// shared-seed scheme keeps the two transports interchangeable and the
// multi-process runs reproducible.)
func DeriveKeys(clusterSeed uint64, n int) ([]ed25519.PublicKey, []ed25519.PrivateKey) {
	pubs := make([]ed25519.PublicKey, n)
	privs := make([]ed25519.PrivateKey, n)
	// Each keypair is one scalar multiplication, independent of the
	// others: derive them on the worker pool.
	_ = pool.Run(n, func(i int) error {
		var seed [ed25519.SeedSize]byte
		binary.LittleEndian.PutUint64(seed[:], clusterSeed^uint64(i)+0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(seed[8:], uint64(i)*0xbf58476d1ce4e5b9+1)
		privs[i] = ed25519.NewKeyFromSeed(seed[:])
		pubs[i] = privs[i].Public().(ed25519.PublicKey)
		return nil
	})
	return pubs, privs
}

// N returns the number of nodes.
func (n *Network) N() int { return n.cfg.N }

// Mode returns the timing model.
func (n *Network) Mode() Mode { return n.cfg.Mode }

// Round returns the current round index.
func (n *Network) Round() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.round
}

// Stats returns a snapshot of delivery counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// delayDeterministic reports whether a message sent in the given round is
// delivered at a fixed one-round latency, drawing no delay: synchronous
// networks and post-GST sends. Pre-GST sends draw from the sequential
// seeded RNG stream or call the installed DelayFn, in enqueue order.
func (n *Network) delayDeterministic(round int) bool {
	return n.cfg.Mode == Sync || round >= n.cfg.GST
}

// SetDown marks a node as crashed (down=true) or back up (down=false).
// It is a simulation-only knob — fault injection on the deterministic
// oracle. The TCP transport's SetDown fails with ErrSimulationOnly
// instead: over real sockets a crash is something that happens to a
// process, not something a peer declares.
// While a node is down, messages from it or to it are dropped at enqueue
// time — before any delay randomness is drawn, so the seeded delay stream
// of the surviving nodes is unaffected and runs stay reproducible for a
// given seed and crash schedule. Messages already in flight toward a node
// when it goes down are dropped at delivery time instead (they were sent
// while it was alive, but there is no one left to receive them).
func (n *Network) SetDown(id NodeID, down bool) error {
	if int(id) < 0 || int(id) >= n.cfg.N {
		return fmt.Errorf("transport: node %d out of range", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down[id] != down {
		n.down[id] = down
		if down {
			n.downCount++
		} else {
			n.downCount--
		}
	}
	return nil
}

// isDown is the lock-held down lookup, safe for the untrusted ids Inject
// may carry (out-of-range ids are not down; admit rejects them later).
func (n *Network) isDown(id NodeID) bool {
	return int(id) >= 0 && int(id) < n.cfg.N && n.down[id]
}

// Down reports whether a node is currently marked down.
func (n *Network) Down(id NodeID) bool {
	if int(id) < 0 || int(id) >= n.cfg.N {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[id]
}

// PublicKey returns node id's verification key.
func (n *Network) PublicKey(id NodeID) (ed25519.PublicKey, error) {
	if int(id) < 0 || int(id) >= n.cfg.N {
		return nil, fmt.Errorf("transport: node %d out of range", id)
	}
	return n.pubs[id], nil
}

// Endpoint returns the send/receive interface for a node.
func (n *Network) Endpoint(id NodeID) (*Endpoint, error) {
	if int(id) < 0 || int(id) >= n.cfg.N {
		return nil, fmt.Errorf("transport: node %d out of range", id)
	}
	return &Endpoint{net: n, id: id}, nil
}

// An envelope is one transmission: a message and the recipients it still
// has to reach, ascending; a nil list means every node but the sender. A
// broadcast is one envelope for its N-1 copies, not N-1 messages;
// Deliveries sets each copy's To as it hands the copy over. The recipient
// list is read-only once filed: a pre-GST copy's is a window of its
// transmission's list, and Step copies a list before it removes a down
// recipient from it.
type envelope struct {
	msg Message
	to  []NodeID
}

// enqueue records an Endpoint's unicast message, stamped with the current
// round and carrying the network's copy of its payload, and files it for
// m.To: one envelope with one recipient. Callers hold no lock.
func (n *Network) enqueue(m Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m.Round = n.round
	n.stats.Transmissions++
	// Crashed endpoints neither send nor receive. The check precedes the
	// delay draw so a down node's (non-)traffic never consumes the seeded
	// RNG stream of the surviving nodes.
	if n.down[m.From] || n.down[m.To] {
		n.stats.DroppedDown++
		return
	}
	m.Payload = n.copyPayload(m.Payload)
	n.record(&m)
	n.post(m, []NodeID{m.To})
}

// copyPayload is the network's own copy of an Endpoint's payload, carved
// from the current arena block: the endpoint may reuse its buffer as
// soon as Send or Broadcast returns. The network never writes a byte of
// a block again, and a block goes when no payload carved from it is
// referenced any more: receivers may keep a payload for as long as they
// like (a consensus instance on the simulated network keeps what
// Receive returned across ticks). Caller holds mu.
func (n *Network) copyPayload(p []byte) []byte {
	if len(p) == 0 || len(p) > arenaBlock/8 {
		return append([]byte(nil), p...)
	}
	if len(n.arena) < len(p) {
		n.arena = make([]byte, arenaBlock)
	}
	c := n.arena[:len(p):len(p)]
	copy(c, p)
	n.arena = n.arena[len(p):]
	return c
}

// enqueueBroadcast records an Endpoint's broadcast, stamped with the
// current round and carrying the network's copy of its payload, and files
// it for every other node under one lock: the envelope carries no
// recipient list while every other node is up, and the live recipients,
// ascending, otherwise. Each copy a down sender or a down recipient loses
// counts in DroppedDown, before any delay is drawn, exactly as if the
// copies had been enqueued one by one. Callers hold no lock.
func (n *Network) enqueueBroadcast(m Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m.Round = n.round
	n.stats.Transmissions++
	if n.down[m.From] {
		n.stats.DroppedDown += uint64(n.cfg.N - 1)
		return
	}
	var to []NodeID // nil: every other node
	// A lone node's broadcast has no recipient, so nothing is carried.
	if n.downCount > 0 || n.cfg.N == 1 {
		to = slices.DeleteFunc(n.others(m.From), func(r NodeID) bool { return n.down[r] })
		n.stats.DroppedDown += uint64(n.cfg.N - 1 - len(to))
		if len(to) == 0 {
			return
		}
	}
	m.Payload = n.copyPayload(m.Payload)
	n.record(&m)
	n.post(m, to)
}

// others lists every node but from, ascending, in a fresh slice.
func (n *Network) others(from NodeID) []NodeID {
	to := make([]NodeID, 0, n.cfg.N-1)
	for r := range NodeID(n.cfg.N) {
		if r != from {
			to = append(to, r)
		}
	}
	return to
}

// post files an admitted envelope under its delivery round. Caller holds
// mu.
//
// Synchronous and post-GST sends all arrive next round, as one envelope.
// Before GST each recipient's delay is drawn in ascending recipient order
// — the order a copy-per-recipient network drew them in, so the seeded
// RNG stream and a DelayFn see the same calls — and each copy is filed
// under its own delivery round as a one-recipient envelope.
func (n *Network) post(m Message, to []NodeID) {
	if n.delayDeterministic(m.Round) {
		n.file(m.Round+1, envelope{m, to})
		return
	}
	if to == nil {
		to = n.others(m.From)
	}
	for i, r := range to {
		n.file(m.Round+n.preGSTDelay(m.From, r, m.Round), envelope{m, to[i : i+1 : i+1]})
	}
}

// file appends env to the queue of delivery round d, opening the queue
// on a spare one Step handed back when there is one. Caller holds mu.
func (n *Network) file(d int, env envelope) {
	q, ok := n.pending[d]
	if !ok && len(n.spare) > 0 {
		q, n.spare = n.spare[len(n.spare)-1], n.spare[:len(n.spare)-1]
	}
	n.pending[d] = append(q, env)
}

// record applies the broadcast channel's coercion to a message an
// Endpoint sends and adds what it carries to its round's record, which is
// what admit vouches for. The record keeps the payload slice, the
// network's own copy (copyPayload), which nothing rewrites. Caller holds mu.
//
// With NoEquivocation the channel carries one value per (sender, round,
// kind) and every recipient hears the first: the first payload recorded
// for them, which a later message of theirs is coerced to, so the record
// never vouches for a coerced-away payload.
func (n *Network) record(m *Message) {
	carried := n.carried[m.Round]
	if n.cfg.NoEquivocation {
		i := slices.IndexFunc(carried, func(s sent) bool { return s.from == m.From && s.kind == m.Kind })
		if i >= 0 {
			m.Payload = carried[i].payload
			return
		}
	}
	if carried == nil {
		carried, n.spareSent = n.spareSent, nil
		if carried == nil {
			carried = make([]sent, 0, n.cfg.N)
		}
	}
	n.carried[m.Round] = append(carried, sent{from: m.From, kind: m.Kind, payload: m.Payload})
}

// admit is the check an injected envelope must pass, and returns the
// payload the network carried for it. It refuses a recipient outside
// 0..N-1 (Step would index the down table with it), a round earlier than
// the current one (a replay: an Endpoint always stamps the current round,
// and a replay's delivery round may already have passed, which would park
// it in pending for good; Step has also dropped that round's record), and
// content — (From, Round, Kind, Payload) —
// the network did not carry from From in that round, which is what a
// valid sender signature proved. The content does not cover To: a genuine
// message re-addressed to another node is admitted. Caller holds mu.
func (n *Network) admit(m Message) ([]byte, bool) {
	if int(m.To) < 0 || int(m.To) >= n.cfg.N || m.Round < n.round {
		return nil, false
	}
	for _, s := range n.carried[m.Round] {
		if s.from == m.From && s.kind == m.Kind && bytes.Equal(s.payload, m.Payload) {
			return s.payload, true
		}
	}
	return nil, false
}

// preGSTDelay is the delay of one copy sent before GST. Caller holds mu.
// The seeded RNG is consumed only on the random-delay path: when a DelayFn
// is installed it fully determines the pre-GST schedule and the RNG state
// is left untouched, so the same seed produces the same random delays
// whether or not other runs used a DelayFn.
func (n *Network) preGSTDelay(from, to NodeID, round int) int {
	if n.cfg.DelayFn != nil {
		return max(n.cfg.DelayFn(from, to, round), 1)
	}
	n.stats.RandomDelays++
	return 1 + n.rng.IntN(n.cfg.MaxPreGSTDelay+1)
}

// Step advances the network one round and keeps the envelopes due in it,
// sorted, as the round's deliveries (see Endpoint.Deliveries). The record
// of the round that just ended goes: admit refuses its messages from now
// on. The previous round's deliveries and that record are emptied and
// kept for later rounds, so a walk over the previous round's deliveries
// must end before Step.
//
// Delivery order is deterministic: the due envelopes are sorted stably by
// (From, Kind) — enqueue order breaks ties — and a node receives its
// copies in that order: (From, Kind, enqueue order), which is the (From,
// To, Kind, enqueue order) a copy-per-recipient network sorted into, since
// To is fixed within one inbox. A recipient down now loses its copy here,
// so a SetDown after Step does not change what the round delivers.
func (n *Network) Step() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.round++
	if old, ok := n.carried[n.round-1]; ok {
		clear(old)
		n.spareSent = old[:0]
		delete(n.carried, n.round-1)
	}
	if n.delivered != nil {
		clear(n.delivered)
		n.spare = append(n.spare, n.delivered[:0])
	}
	due := n.pending[n.round]
	delete(n.pending, n.round)
	slices.SortStableFunc(due, func(a, b envelope) int {
		if a.msg.From != b.msg.From {
			return cmp.Compare(a.msg.From, b.msg.From)
		}
		return strings.Compare(a.msg.Kind, b.msg.Kind)
	})
	isDown := func(r NodeID) bool { return n.down[r] }
	anyDown := n.downCount > 0
	for i := range due {
		e := &due[i]
		copies := len(e.to)
		if e.to == nil {
			copies = n.cfg.N - 1
			if anyDown {
				e.to = n.others(e.msg.From)
			}
		}
		if slices.ContainsFunc(e.to, isDown) {
			// In flight when a recipient crashed: dropped on delivery.
			e.to = slices.DeleteFunc(slices.Clone(e.to), isDown)
			n.stats.DroppedDown += uint64(copies - len(e.to))
			copies = len(e.to)
		}
		n.stats.MessagesDelivered += uint64(copies)
		n.stats.BytesDelivered += uint64(copies * len(e.msg.Payload))
	}
	n.delivered = due
}

// Inject delivers a raw message envelope (used by adversarial tests to
// attempt forgery); it is dropped, and counted in ForgeriesDropped, unless
// the network carried its (From, Round, Kind, Payload) from From, its
// recipient is a node and its round has not passed (see admit). An
// admitted message travels with the payload the network carried.
func (n *Network) Inject(m Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isDown(m.From) || n.isDown(m.To) {
		n.stats.DroppedDown++
		return
	}
	payload, ok := n.admit(m)
	if !ok {
		n.stats.ForgeriesDropped++
		return
	}
	m.Payload = payload
	n.post(m, []NodeID{m.To})
}

// Endpoint is a node's handle on the network.
type Endpoint struct {
	net *Network
	id  NodeID
}

// ID returns the node's identifier.
func (e *Endpoint) ID() NodeID { return e.id }

// Send transmits a message to a single node in the current round. The
// network carries its own copy of the payload.
func (e *Endpoint) Send(to NodeID, kind string, payload []byte) error {
	if int(to) < 0 || int(to) >= e.net.cfg.N {
		return fmt.Errorf("transport: recipient %d out of range", to)
	}
	e.net.enqueue(Message{From: e.id, To: to, Kind: kind, Payload: payload})
	return nil
}

// Broadcast transmits a message to every other node in the current round.
// The copies travel as one envelope, enqueued under one lock and recorded
// once, with one copy of the payload; they are told apart only at
// delivery, where each one's To is set.
func (e *Endpoint) Broadcast(kind string, payload []byte) error {
	e.net.enqueueBroadcast(Message{From: e.id, Kind: kind, Payload: payload})
	return nil
}

// SignBlob signs arbitrary protocol content under a domain-separation
// context (used for Dolev-Strong signature chains, which must survive
// re-broadcast by other nodes).
func (e *Endpoint) SignBlob(context string, data []byte) []byte {
	return ed25519.Sign(e.net.privs[e.id], blobBytes(context, data))
}

// VerifyBlob verifies a blob signature produced by SignBlob.
func (n *Network) VerifyBlob(id NodeID, context string, data, sig []byte) bool {
	if int(id) < 0 || int(id) >= n.cfg.N {
		return false
	}
	return ed25519.Verify(n.pubs[id], blobBytes(context, data), sig)
}

func blobBytes(context string, data []byte) []byte {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(context)))
	buf.Write(hdr[:])
	buf.WriteString(context)
	buf.Write(data)
	return buf.Bytes()
}

// Envelopes yields each envelope the round current when it is called
// delivers, once, in Step's order: its message, with To zero, and its
// recipients, ascending, of whom Step has already removed the down ones
// (nil: every node but the sender). It walks the round's envelopes, which
// Step never rewrites, so callers may range over them concurrently. The
// payload and the recipient list are shared by every reader: callers must
// not rewrite them.
func (n *Network) Envelopes() iter.Seq2[Message, []NodeID] {
	round := n.deliveries()
	return func(yield func(Message, []NodeID) bool) {
		for env := range walk(round) {
			m := env.msg
			m.To = 0 // a unicast keeps its recipient in the list
			if !yield(m, env.to) {
				return
			}
		}
	}
}

// deliveries is the current round's envelopes.
func (n *Network) deliveries() []envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered
}

// walk is the one walk over a round's envelopes, Envelopes' and
// Deliveries': it yields each in place, for reading only.
func walk(round []envelope) iter.Seq[*envelope] {
	return func(yield func(*envelope) bool) {
		for i := range round {
			if !yield(&round[i]) {
				return
			}
		}
	}
}

// Deliveries yields the messages delivered to this node in the round
// current when it is called, in Step's order, each with To set: the
// envelopes of Envelopes' walk that reach it, which is every one without
// a recipient list that it did not send, and every one whose list holds
// it. Every recipient's copy shares one payload: callers must not rewrite
// those bytes.
func (e *Endpoint) Deliveries() iter.Seq[Message] {
	round := e.net.deliveries()
	return func(yield func(Message) bool) {
		for env := range walk(round) {
			if env.to == nil {
				if env.msg.From == e.id {
					continue
				}
			} else if _, ok := slices.BinarySearch(env.to, e.id); !ok {
				continue
			}
			m := env.msg
			m.To = e.id
			if !yield(m) {
				return
			}
		}
	}
}

// Receive returns Deliveries as a fresh slice of exactly their length,
// which the caller owns (the payload bytes stay shared).
func (e *Endpoint) Receive() []Message {
	deliveries := e.Deliveries()
	count := 0
	for range deliveries {
		count++
	}
	msgs := make([]Message, 0, count)
	for m := range deliveries {
		msgs = append(msgs, m)
	}
	return msgs
}
