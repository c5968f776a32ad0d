// Package consensus defines the interface between CSM's consensus phase and
// its execution phase, plus the drivers that run a protocol instance. CSM
// deliberately reuses standard consensus protocols ("CSM uses the same
// consensus protocols to decide on the input commands", Section 1): the
// Dolev-Strong authenticated broadcast for synchronous networks
// (sub-package dolevstrong, tolerating any b < N) and PBFT for partially
// synchronous networks (sub-package pbft, requiring N >= 3b+1).
//
// Protocols are written once against the Transport interface and run
// unchanged over two drivers: Run ticks all N nodes of a simulated
// lock-step Network inside one process (the deterministic oracle), and
// DriveLink ticks one node over its own transport.Link — the per-process
// driver the multi-process engine uses, where the link's Step barrier
// replaces the simulator's global Network.Step. DriveLink runs a caller's
// hook after every tick, on the inbox that tick consumed, so work that
// does not need the decision (CSM's first execution step, on a prepared
// batch) shares the instance's ticks instead of following them; RunLink
// is DriveLink without a hook.
package consensus

import (
	"errors"
	"fmt"

	"codedsm/internal/transport"
)

// ErrNoDecision is returned when a protocol instance exhausts its round
// budget without every honest node deciding. Errors carrying it are
// *NoDecisionError values naming the undecided nodes.
var ErrNoDecision = errors.New("consensus: no decision within round budget")

// NoDecisionError reports which nodes had not decided when the round
// budget ran out. It unwraps to ErrNoDecision, so errors.Is checks against
// the sentinel keep working.
type NoDecisionError struct {
	// Undecided lists the waited-for nodes without a decision, ascending.
	Undecided []transport.NodeID
}

func (e *NoDecisionError) Error() string {
	return fmt.Sprintf("consensus: no decision within round budget (undecided nodes %v)", e.Undecided)
}

func (e *NoDecisionError) Unwrap() error { return ErrNoDecision }

// Transport is the surface a protocol participant drives: identity,
// broadcast, and roster-wide blob signatures. A transport.Link satisfies
// it directly (one process per node, real or simulated sockets), and
// NewNetTransport adapts one endpoint of the simulated Network for the
// single-process lock-step driver. Protocols only ever broadcast — the
// synchronous model delivers to everyone in the next round either way.
type Transport interface {
	// Self is the node this transport belongs to.
	Self() transport.NodeID
	// N is the cluster size.
	N() int
	// Broadcast transmits a signed message to every other node.
	Broadcast(kind string, payload []byte) error
	// SignBlob signs protocol content under a domain-separation context;
	// the signature survives re-broadcast by other nodes.
	SignBlob(context string, data []byte) []byte
	// VerifyBlob verifies a blob signature produced by node id's SignBlob.
	VerifyBlob(id transport.NodeID, context string, data, sig []byte) bool
}

// A Link is a Transport; protocols ported to Transport run over TCP
// unchanged.
var _ Transport = transport.Link(nil)

// netTransport adapts one endpoint of a simulated Network to Transport.
type netTransport struct {
	net *transport.Network
	ep  *transport.Endpoint
}

// NewNetTransport returns node id's Transport over the simulated network:
// the adapter the lock-step Run driver (and any single-process test)
// hands to protocol constructors.
func NewNetTransport(net *transport.Network, id transport.NodeID) (Transport, error) {
	if net == nil {
		return nil, fmt.Errorf("consensus: nil network")
	}
	ep, err := net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &netTransport{net: net, ep: ep}, nil
}

func (t *netTransport) Self() transport.NodeID { return t.ep.ID() }
func (t *netTransport) N() int                 { return t.net.N() }

func (t *netTransport) Broadcast(kind string, payload []byte) error {
	return t.ep.Broadcast(kind, payload)
}

func (t *netTransport) SignBlob(context string, data []byte) []byte {
	return t.ep.SignBlob(context, data)
}

func (t *netTransport) VerifyBlob(id transport.NodeID, context string, data, sig []byte) bool {
	return t.net.VerifyBlob(id, context, data, sig)
}

// Node is one participant in a lock-step protocol instance. Tick is called
// once per network round with the messages delivered this round; the node
// reacts by broadcasting through its Transport.
type Node interface {
	// Tick processes one round.
	Tick(inbox []transport.Message) error
	// Decided returns the decided value once the node has terminated.
	Decided() ([]byte, bool)
}

// Run drives a set of nodes in lock step until every node in waitFor has
// decided or maxRounds have elapsed. Nodes not in waitFor (e.g. Byzantine
// ones simulated by adversarial Node implementations) still get ticks.
func Run(net *transport.Network, nodes []Node, waitFor []int, maxRounds int) error {
	if len(waitFor) == 0 {
		return fmt.Errorf("consensus: empty waitFor set")
	}
	endpoints := make([]*transport.Endpoint, len(nodes))
	for i := range nodes {
		e, err := net.Endpoint(transport.NodeID(i))
		if err != nil {
			return err
		}
		endpoints[i] = e
	}
	for r := 0; r < maxRounds; r++ {
		for i, n := range nodes {
			if n == nil {
				continue
			}
			if err := n.Tick(endpoints[i].Receive()); err != nil {
				return fmt.Errorf("consensus: node %d round %d: %w", i, r, err)
			}
		}
		net.Step()
		done := true
		for _, i := range waitFor {
			if nodes[i] == nil {
				continue
			}
			if _, ok := nodes[i].Decided(); !ok {
				done = false
				break
			}
		}
		if done {
			return nil
		}
	}
	undecided := make([]transport.NodeID, 0, len(waitFor))
	for _, i := range waitFor {
		if nodes[i] == nil {
			continue
		}
		if _, ok := nodes[i].Decided(); !ok {
			undecided = append(undecided, transport.NodeID(i))
		}
	}
	return &NoDecisionError{Undecided: undecided}
}

// RunLink drives one participant over its own Link until it decides or
// maxTicks have elapsed, returning the decided value: DriveLink with no
// hook.
func RunLink(link transport.Link, node Node, maxTicks int) ([]byte, error) {
	return DriveLink(link, node, maxTicks, nil)
}

// DriveLink drives one participant over its own Link like RunLink, and
// after every Tick calls hook (when non-nil) with the inbox that tick
// consumed, before the tick's Step — so whatever the hook broadcasts
// leaves in the same round as the protocol's own messages. Each tick
// processes the previous round's inbox and ends with a Step; the tick a
// node decides in consumes its inbox and runs the hook but does not step,
// so in a lock-step run every honest node leaves its instance on the same
// link round — the property that lets the execution phase follow
// consensus without an extra synchronization exchange. A hook error ends
// the instance with that error.
func DriveLink(link transport.Link, node Node, maxTicks int, hook func(inbox []transport.Message) error) ([]byte, error) {
	var inbox []transport.Message
	for tick := 0; tick < maxTicks; tick++ {
		if err := node.Tick(inbox); err != nil {
			return nil, fmt.Errorf("consensus: node %d tick %d: %w", link.Self(), tick, err)
		}
		if hook != nil {
			if err := hook(inbox); err != nil {
				return nil, fmt.Errorf("consensus: node %d tick %d hook: %w", link.Self(), tick, err)
			}
		}
		if v, ok := node.Decided(); ok {
			return v, nil
		}
		msgs, err := link.Step()
		if err != nil {
			return nil, err
		}
		inbox = msgs
	}
	return nil, &NoDecisionError{Undecided: []transport.NodeID{link.Self()}}
}
