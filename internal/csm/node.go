package csm

import (
	"codedsm/internal/field"
	"codedsm/internal/transport"
)

// resultKind tags execution-phase messages.
const resultKind = "csm-result"

// node is one simulated CSM compute node: the shared coded-step core
// (step.go) plus what only the simulation has — an endpoint on the
// lock-step network, an injected behavior and the staged result
// transmission.
type node[E comparable] struct {
	stepCore[E]
	cluster  *Cluster[E]
	ep       *transport.Endpoint
	behavior Behavior
	decoded  *nodeDecode[E] // this step's decode, nil until the node has one

	// Staged result transmission: planBroadcast draws all Byzantine
	// randomness on the driving goroutine (cluster-RNG order matters) and
	// fills these; transmitResult is then RNG-free, so the signing and
	// enqueueing of the N nodes' results can fan out across workers
	// whenever the network delivery schedule is deterministic.
	txBroadcast []byte   // payload to Broadcast (nil: nothing to broadcast)
	txSends     [][]byte // per-recipient payloads (Equivocate), nil otherwise
}

// planBroadcast stages the node's (possibly corrupted) result
// transmission, drawing any Byzantine randomness from the cluster RNG —
// this must run on the driving goroutine, in node order.
func (n *node[E]) planBroadcast(result []E) {
	c := n.cluster
	n.txBroadcast = nil
	n.txSends = nil
	switch n.behavior {
	case Silent, Crashed, Recovering:
		// Nothing to transmit: silence is adversarial withholding; a
		// crashed or recovering node computed no result at all (the
		// transport would drop a crashed node's traffic anyway).
	case WrongResult, BadLeader:
		bad := field.RandVec(c.cfg.BaseField, c.rng, len(result))
		n.accept(n.id, bad) // a liar is at least self-consistent
		n.txBroadcast = encodeResult(c.cfg.BaseField, c.round, clusterTag, bad)
	case Equivocate:
		// A different wrong value to every peer. On a no-equivocation
		// (broadcast) network the transport coerces these to the first.
		n.txSends = make([][]byte, c.cfg.N)
		for to := 0; to < c.cfg.N; to++ {
			if to == n.id {
				continue
			}
			bad := field.RandVec(c.cfg.BaseField, c.rng, len(result))
			n.txSends[to] = encodeResult(c.cfg.BaseField, c.round, clusterTag, bad)
		}
		n.accept(n.id, result)
	default:
		n.accept(n.id, result)
		n.txBroadcast = encodeResult(c.cfg.BaseField, c.round, clusterTag, result)
	}
}

// transmitResult signs and enqueues what planBroadcast staged. It is
// RNG-free and touches only this node's endpoint, so distinct nodes may
// transmit concurrently when the network schedule is deterministic.
func (n *node[E]) transmitResult() error {
	if n.txBroadcast != nil {
		return n.ep.Broadcast(resultKind, n.txBroadcast)
	}
	for to, payload := range n.txSends {
		if payload == nil {
			continue
		}
		if err := n.ep.Send(transport.NodeID(to), resultKind, payload); err != nil {
			return err
		}
	}
	return nil
}

// resetStep opens a new step: nothing collected, nothing decoded.
func (n *node[E]) resetStep() {
	n.stepCore.resetStep()
	n.decoded = nil
}

// tryDecode decodes once enough results are available — the simulator's
// policy on top of the core's absorb. Synchronous mode decodes whatever
// arrived after the fixed interval (missing results are erasures);
// partially synchronous mode requires at least N-b results. need is the
// step-constant decode threshold (Cluster.decodeNeed), computed once per
// micro-step by the caller.
func (n *node[E]) tryDecode(force bool, need int) (bool, error) {
	if n.receivedCount < need {
		return false, nil
	}
	if !force && n.receivedCount < n.n {
		// Wait for more stragglers unless the deadline passed.
		return false, nil
	}
	dec, err := n.absorb()
	if err != nil {
		return false, err
	}
	n.decoded = dec
	return true, nil
}
