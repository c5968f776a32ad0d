package csm

import (
	"codedsm/internal/field"
	"codedsm/internal/transport"
)

// resultKind tags execution-phase messages.
const resultKind = "csm-result"

// node is one simulated CSM compute node: the shared coded-step core
// (step.go) plus what only the simulation has — an endpoint on the
// lock-step network and an injected behavior.
type node[E comparable] struct {
	stepCore[E]
	cluster  *Cluster[E]
	ep       *transport.Endpoint
	behavior Behavior
	decoded  *nodeDecode[E] // this step's decode, nil until the node has one
	lies     []E            // a wrong result, drawn afresh for each send
}

// sendResult transmits the node's (possibly corrupted) result, drawing any
// Byzantine randomness from the cluster RNG — this must run on the driving
// goroutine, in node order. The network's RNG, which pre-GST sends draw
// delays from, is its own, so the two streams do not interleave.
func (n *node[E]) sendResult(result []E) error {
	c := n.cluster
	switch n.behavior {
	case Silent, Crashed, Recovering:
		// Nothing to transmit: silence is adversarial withholding; a
		// crashed or recovering node computed no result at all (the
		// transport would drop a crashed node's traffic anyway).
		return nil
	case WrongResult, BadLeader:
		bad := field.RandVecInto(c.cfg.BaseField, c.rng, n.lies)
		n.keep(bad) // a liar is at least self-consistent
		return n.ep.Broadcast(resultKind, n.resultPayload(c.round, clusterTag, bad))
	case Equivocate:
		// A different wrong value to every peer. On a no-equivocation
		// (broadcast) network the transport coerces these to the first.
		for to := 0; to < c.cfg.N; to++ {
			if to == n.id {
				continue
			}
			bad := field.RandVecInto(c.cfg.BaseField, c.rng, n.lies)
			if err := n.ep.Send(transport.NodeID(to), resultKind, n.resultPayload(c.round, clusterTag, bad)); err != nil {
				return err
			}
		}
		n.keep(result)
		return nil
	default:
		n.keep(result)
		return n.ep.Broadcast(resultKind, n.resultPayload(c.round, clusterTag, result))
	}
}

// keep counts the result n sends as its own for the step: it opens n's
// row of the cluster's shared table, where n and every node that receives
// the same result read it.
func (n *node[E]) keep(result []E) {
	n.cluster.shareResult(n.id, result)
	n.setOwn(n.id, false)
	n.markReceived(n.id)
}

// resetStep opens a new step: nothing collected, nothing decoded.
func (n *node[E]) resetStep() {
	n.stepCore.resetStep()
	n.decoded = nil
}

// tryDecode decodes into d once enough results are available — the
// simulator's policy on top of the core's absorb. Synchronous mode
// decodes whatever arrived after the fixed interval (missing results are
// erasures); partially synchronous mode requires at least N-b results.
// need is the step-constant decode threshold (Cluster.decodeNeed),
// computed once per micro-step by the caller.
func (n *node[E]) tryDecode(force bool, need int, d *nodeDecode[E]) (bool, error) {
	if n.receivedCount < need {
		return false, nil
	}
	if !force && n.receivedCount < n.n {
		// Wait for more stragglers unless the deadline passed.
		return false, nil
	}
	if err := n.absorb(d); err != nil {
		return false, err
	}
	n.decoded = d
	return true, nil
}
