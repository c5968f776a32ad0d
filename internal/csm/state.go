// Machine-state handoff: the cluster-level primitives the shard router
// (internal/shard) builds its rebalancing on. Migrating a machine
// between two clusters is a coded read on the source — reconstruct the
// machine's state from the nodes' coded shares, correcting up to the
// fault budget like any round decode — followed by a coded write on the
// target: installing one machine's state is a rank-1 update of every
// node's share, S̃_i += l_k(α_i)·(new − old), because the Lagrange
// encode is linear in the per-machine states. Neither side ever
// materializes the other K−1 machines' states, which is what keeps the
// handoff at repair cost (per-node O(state), like lcc.RepairShare)
// instead of a full decode + re-encode of the cluster.
package csm

import (
	"fmt"

	"codedsm/internal/field"
)

// DecodeMachineState reconstructs machine k's current state from the
// nodes' coded shares. Crashed and recovering nodes contribute nothing
// (erasures); Byzantine nodes contribute garbage, which the
// Reed-Solomon decode corrects like an execution-phase error — the
// coded read tolerates exactly the fault pattern the cluster is sized
// for. The cluster must not have an open ingress client (the scheduler
// owns it between Open and Close).
func (c *Cluster[E]) DecodeMachineState(k int) ([]E, error) {
	if k < 0 || k >= c.cfg.K {
		return nil, fmt.Errorf("csm: decode machine state: machine %d out of range [0,%d)", k, c.cfg.K)
	}
	if err := c.requireNoClient("decode machine state"); err != nil {
		return nil, err
	}
	stateLen := c.tr.StateLen()
	indices := make([]int, 0, c.cfg.N)
	contributions := make([][]E, 0, c.cfg.N)
	for j, n := range c.nodes {
		if n.behavior == Crashed || n.behavior == Recovering {
			continue
		}
		indices = append(indices, j)
		if n.behavior != Honest {
			contributions = append(contributions, field.RandVec(c.cfg.BaseField, c.rng, stateLen))
			continue
		}
		contributions = append(contributions, n.codedState)
	}
	// The coded states encode the K state vectors at degree 1 (the
	// encoding polynomial u_t itself, not a transition image).
	dec, err := c.code.DecodeOutputsSubset(indices, contributions, 1)
	if err != nil {
		return nil, fmt.Errorf("csm: decode machine %d state: %w", k, err)
	}
	return append([]E(nil), dec.Outputs[k]...), nil
}

// AdoptMachineState replaces machine k's state with the given vector
// (copied): the oracle machine adopts it and every reachable node
// applies the rank-1 Lagrange share update S̃_i += l_k(α_i)·(new − old).
// Crashed and recovering nodes are skipped — their share is already
// lost, and a later Rejoin repairs it from the updated survivors via
// lcc.RepairShare, so the churn machinery composes with adoption
// unchanged. The cluster must not have an open ingress client.
func (c *Cluster[E]) AdoptMachineState(k int, state []E) error {
	if k < 0 || k >= c.cfg.K {
		return fmt.Errorf("csm: adopt machine state: machine %d out of range [0,%d)", k, c.cfg.K)
	}
	if len(state) != c.tr.StateLen() {
		return fmt.Errorf("csm: adopt machine %d state: length %d, want %d", k, len(state), c.tr.StateLen())
	}
	if err := c.requireNoClient("adopt machine state"); err != nil {
		return err
	}
	cur := c.oracle[k][:len(state)]
	delta := make([]E, len(state))
	c.bulk.SubVec(delta, state, cur)
	copy(cur, state)
	coeffs := c.code.Coeffs()
	for i, n := range c.nodes {
		if n.behavior == Crashed || n.behavior == Recovering {
			continue
		}
		c.bulk.ScaleAccVec(n.codedState, coeffs[i][k], delta)
	}
	return nil
}

// requireNoClient fails the named operation while an ingress client is
// open: between Open and Close the scheduler goroutine owns the
// cluster, so direct state access would race it.
func (c *Cluster[E]) requireNoClient(op string) error {
	c.clientMu.Lock()
	defer c.clientMu.Unlock()
	if c.clientOpen {
		return fmt.Errorf("csm: %s: %w", op, ErrClientOpen)
	}
	return nil
}
