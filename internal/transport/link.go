package transport

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by Link operations after the link (or its peer
// group) has been closed.
var ErrClosed = errors.New("transport: link closed")

// Link is the per-node transport surface of a lock-step cluster: the
// interface a single node's process drives, as opposed to *Network, which
// a single-process simulation drives for all N nodes at once. Two
// implementations exist:
//
//   - NewLocalLinks adapts the simulated Network: N links in one process,
//     Step is a barrier that advances the shared network once all N nodes
//     have arrived. This is the deterministic test oracle.
//   - NewTCP speaks length-prefixed frames over mutually authenticated
//     sessions on real sockets: one link per OS process, Step is a
//     distributed barrier over per-peer DONE markers. This is the
//     production path.
//
// Both deliver messages with the synchronous model's one-round latency
// (sent in round r, delivered in round r+1), in the same order, and both
// guarantee that a delivered Message's From is the node that sent it, so
// a protocol driven over a Link is bit-identical across the two — the
// property the remote-engine equivalence tests pin.
//
// How From is authenticated differs. On the simulated network the network
// itself is the channel: it stamps From with the sending endpoint, and
// admits an injected message only if it carried the same content from
// that sender in a round that has not passed. The TCP transport
// authenticates each connection once, by roster key, and accepts a frame
// only from the session of the From it claims (see tcp.go). Neither signs
// a message, so neither lets a receiver show a delivered message to
// anyone else as proof of who sent it. Content that has to convince a
// third node goes through SignBlob/VerifyBlob, which are ed25519 on both
// transports.
//
// Simulation-only knobs (SetDown crash injection; the delay models and
// equivocation coercion of Config) are honoured by the local links and
// rejected with ErrSimulationOnly by the TCP transport.
type Link interface {
	// Self is the node this link belongs to.
	Self() NodeID
	// N is the cluster size.
	N() int
	// Round is the current lock-step round.
	Round() int
	// Send transmits a message to one node, authenticated as this node's.
	// Neither Send nor Broadcast keeps payload once it returns, so the
	// caller may reuse the buffer.
	Send(to NodeID, kind string, payload []byte) error
	// Broadcast transmits a message to every other node, authenticated as
	// this node's.
	Broadcast(kind string, payload []byte) error
	// Step ends this node's round: it blocks until every node in the
	// cluster has ended the same round, advances to the next one, and
	// returns the messages delivered to this node (everything sent to it
	// during the round that just ended). A TCP link configured with a
	// FailoverQuorum may instead advance once that many peers have ended
	// the round, suspecting the rest (see TCPConfig).
	Step() ([]Message, error)
	// SignBlob signs protocol content under a domain-separation context
	// with this node's key. Blob signatures survive re-broadcast by other
	// nodes (Dolev-Strong chains, PBFT view-change proofs), unlike the
	// authentication of a message's envelope, which only convinces its
	// direct receiver.
	SignBlob(context string, data []byte) []byte
	// VerifyBlob verifies a blob signature produced by node id's SignBlob
	// against the cluster roster.
	VerifyBlob(id NodeID, context string, data, sig []byte) bool
	// SetDown injects a crash (simulation only; the TCP transport fails
	// with ErrSimulationOnly).
	SetDown(id NodeID, down bool) error
	// Close releases the link. Closing any link of a local group, or a
	// TCP link, aborts blocked and future Steps with ErrClosed.
	Close() error
}

// localGroup synchronizes the N local links of one simulated network:
// the last link to arrive at the barrier advances the network.
type localGroup struct {
	net     *Network
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	closed  bool
}

// localLink adapts one Endpoint of a simulated Network to the Link
// interface.
type localLink struct {
	g  *localGroup
	ep *Endpoint
}

// NewLocalLinks returns one Link per node of the simulated network. The
// links share a barrier: each node's Step blocks until all N nodes have
// called Step, the network advances exactly once, and every link then
// returns its own inbox — the same delivery schedule a single-process
// simulation sees, but drivable by N independent goroutines. Closing any
// link closes the whole group (the lock-step run cannot continue without
// every node).
func NewLocalLinks(net *Network) ([]Link, error) {
	g := &localGroup{net: net}
	g.cond = sync.NewCond(&g.mu)
	links := make([]Link, net.N())
	for i := range links {
		ep, err := net.Endpoint(NodeID(i))
		if err != nil {
			return nil, err
		}
		links[i] = &localLink{g: g, ep: ep}
	}
	return links, nil
}

func (l *localLink) Self() NodeID { return l.ep.ID() }
func (l *localLink) N() int       { return l.g.net.N() }
func (l *localLink) Round() int   { return l.g.net.Round() }

func (l *localLink) Send(to NodeID, kind string, payload []byte) error {
	return l.ep.Send(to, kind, payload)
}

func (l *localLink) Broadcast(kind string, payload []byte) error {
	return l.ep.Broadcast(kind, payload)
}

func (l *localLink) SignBlob(context string, data []byte) []byte {
	return l.ep.SignBlob(context, data)
}

func (l *localLink) VerifyBlob(id NodeID, context string, data, sig []byte) bool {
	return l.g.net.VerifyBlob(id, context, data, sig)
}

func (l *localLink) SetDown(id NodeID, down bool) error {
	return l.g.net.SetDown(id, down)
}

func (l *localLink) Step() ([]Message, error) {
	g := l.g
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, fmt.Errorf("transport: local link %d: %w", l.ep.ID(), ErrClosed)
	}
	myGen := g.gen
	g.arrived++
	if g.arrived == g.net.N() {
		g.net.Step()
		g.arrived = 0
		g.gen++
		g.cond.Broadcast()
	} else {
		for g.gen == myGen && !g.closed {
			g.cond.Wait()
		}
	}
	closed := g.closed
	g.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("transport: local link %d: %w", l.ep.ID(), ErrClosed)
	}
	return l.ep.Receive(), nil
}

func (l *localLink) Close() error {
	g := l.g
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
	return nil
}
