// Crash-recovery handshake for the multi-process engine.
//
// After a whole-cluster restart each node resumes from its own durable
// state, and a crash mid-batch leaves the nodes skewed: the lock-step
// barrier bounds the skew to about one round, but "about" is not a
// protocol. Recover reconciles it before the workload resumes:
//
//  1. Every node broadcasts its recovered round. One lock-step tick
//     later everyone holds all N announcements and computes the same
//     view: target = max round, floor = min round.
//  2. If all nodes agree, recovery is done. Otherwise the decision is
//     pure arithmetic on the shared view, so no coordinator is needed:
//     - If at least K nodes sit at the target round, the stale nodes
//     catch up: each target node broadcasts a delta (its coded share
//     plus the decoded outputs of the rounds the floor is missing),
//     and each stale node absorbs the missing outputs into its digest
//     and rebuilds its own share with lcc.RepairShare over the target
//     nodes' shares — the paper's repair path, reused for recovery.
//     With more than K contributions the repair even corrects a
//     corrupted delta, the same (len-K)/2 bound as state repair.
//     - With fewer than K up-to-date shares no repair interpolation is
//     possible, so the cluster rolls back to the floor round instead:
//     each ahead node rewinds to its retained applied record (share +
//     digest state) at the floor. Re-execution is deterministic, so
//     a rollback costs time, never correctness.
//
// Every path ends with the same number of lock-step ticks on every node
// (announcements: one; deltas: one more), which is what keeps the
// barrier aligned for the workload that follows.
package csm

import (
	"fmt"
	"slices"

	"codedsm/internal/nodeapi"
)

// recoveryDelta is one target node's parsed deltaKind payload.
type recoveryDelta struct {
	from   int
	share  []uint64
	rounds [][][]uint64 // [r-from][machine] decoded outputs
}

// Recover reconciles this node's durable round with its peers after a
// restart. All N nodes must call it at the same point in the link's
// lock-step schedule — in practice right after NewNodeProcess, before
// leading or following any batch. It is correct (and a near no-op) on
// a cold start too.
func (p *NodeProcess[E]) Recover() error {
	if p.stopped {
		return ErrStopped
	}
	// Phase 1: announce rounds; one tick gathers all N.
	var ann bwriter
	ann.u64(uint64(p.round))
	if err := p.link.Broadcast(recoverKind, ann.b); err != nil {
		return err
	}
	rounds := map[int]int{p.self: p.round}
	for ticks := 0; len(rounds) < p.n; ticks++ {
		if ticks >= maxTicksPerRound {
			missing := make([]int, 0, p.n)
			for i := 0; i < p.n; i++ {
				if _, ok := rounds[i]; !ok {
					missing = append(missing, i)
				}
			}
			return fmt.Errorf("csm: node %d recovery: %w — no announcement from nodes %v after %d ticks",
				p.self, ErrRoundStuck, missing, ticks)
		}
		msgs, err := p.link.Step()
		if err != nil {
			return err
		}
		for _, m := range msgs {
			if m.Kind != recoverKind {
				continue
			}
			r := &breader{b: m.Payload}
			v := int(r.u64())
			if !r.done() || v < 0 {
				continue
			}
			rounds[int(m.From)] = v
		}
	}
	target, floor := p.round, p.round
	//csmlint:allow detmap(min/max fold is commutative and order-independent)
	for _, v := range rounds {
		target = max(target, v)
		floor = min(floor, v)
	}
	if target == floor {
		return nil // everyone agrees; nothing to reconcile
	}
	ahead := make([]int, 0, p.n)
	for i := 0; i < p.n; i++ {
		if rounds[i] == target {
			ahead = append(ahead, i)
		}
	}
	if len(ahead) < p.cfg.K {
		// Not enough up-to-date shares to interpolate a repair.
		return p.rollbackTo(floor)
	}
	if p.round == target {
		payload, err := p.encodeDelta(target, floor)
		if err != nil {
			return err
		}
		if err := p.link.Broadcast(deltaKind, payload); err != nil {
			return err
		}
		// The tick that delivers the delta to the stale nodes.
		_, err = p.link.Step()
		return err
	}
	return p.catchUp(target, ahead)
}

// rollbackTo rewinds this node to the given round from its retained
// applied window (or the initial state for round 0). Nodes already at
// the round keep their state.
func (p *NodeProcess[E]) rollbackTo(round int) error {
	if p.round == round {
		return nil
	}
	if p.round < round {
		return fmt.Errorf("csm: node %d cannot roll forward from round %d to %d", p.self, p.round, round)
	}
	if round == 0 {
		p.round = 0
		p.core.adoptShare(slices.Clone(p.initialCoded))
		p.digest = nodeapi.NewDigest()
		return p.snapshot(true)
	}
	if p.store == nil {
		return fmt.Errorf("csm: node %d cannot roll back to round %d without a durable store", p.self, round)
	}
	st, ok := p.store.appliedAt(round - 1)
	if !ok {
		return fmt.Errorf("csm: node %d cannot roll back to round %d: record evicted from the retained window", p.self, round)
	}
	p.round = round
	p.core.adoptShare(vecFromWire(p.cfg.BaseField, st.share))
	p.digest = nodeapi.NewDigest()
	if err := p.digest.UnmarshalBinary(st.digest); err != nil {
		return err
	}
	return p.snapshot(true)
}

// encodeDelta serializes this (up-to-date) node's catch-up delta: its
// coded share at target plus the decoded outputs of rounds [from, target).
func (p *NodeProcess[E]) encodeDelta(target, from int) ([]byte, error) {
	if p.store == nil {
		return nil, fmt.Errorf("csm: node %d cannot serve a recovery delta without a durable store", p.self)
	}
	var w bwriter
	w.u64(uint64(target))
	w.u64(uint64(from))
	w.vec(vecToWire(p.cfg.BaseField, p.core.codedState))
	w.u32(uint32(p.cfg.K))
	for r := from; r < target; r++ {
		st, ok := p.store.appliedAt(r)
		if !ok || len(st.outputs) != p.cfg.K {
			return nil, fmt.Errorf("csm: node %d cannot serve a recovery delta: round %d evicted from the retained window", p.self, r)
		}
		for _, out := range st.outputs {
			w.vec(out)
		}
	}
	return w.b, nil
}

// parseDelta decodes a deltaKind payload against the agreed target.
func (p *NodeProcess[E]) parseDelta(payload []byte, target int) (recoveryDelta, bool) {
	r := &breader{b: payload}
	gotTarget := int(r.u64())
	from := int(r.u64())
	share := r.vec()
	k := int(r.u32())
	if r.fail || gotTarget != target || from < 0 || from > target ||
		k != p.cfg.K || len(share) != p.tr.StateLen() {
		return recoveryDelta{}, false
	}
	// Each round carries K outputs of at least their 4-byte length.
	rounds := make([][][]uint64, r.count(target-from, 4*k))
	for i := range rounds {
		outs := make([][]uint64, k)
		for j := range outs {
			outs[j] = r.vec()
		}
		rounds[i] = outs
	}
	if !r.done() {
		return recoveryDelta{}, false
	}
	return recoveryDelta{from: from, share: share, rounds: rounds}, true
}

// catchUp brings a stale node to target: absorb the missing rounds'
// outputs into the digest, then rebuild this node's coded share by
// Reed-Solomon repair over the up-to-date nodes' shares.
func (p *NodeProcess[E]) catchUp(target int, ahead []int) error {
	deltas := make(map[int]recoveryDelta, len(ahead))
	for ticks := 0; len(deltas) < len(ahead); ticks++ {
		if ticks >= maxTicksPerRound {
			missing := make([]int, 0, len(ahead))
			for _, i := range ahead {
				if _, ok := deltas[i]; !ok {
					missing = append(missing, i)
				}
			}
			return fmt.Errorf("csm: node %d recovery: %w — no delta from nodes %v after %d ticks",
				p.self, ErrRoundStuck, missing, ticks)
		}
		msgs, err := p.link.Step()
		if err != nil {
			return err
		}
		for _, m := range msgs {
			if m.Kind != deltaKind || !slices.Contains(ahead, int(m.From)) {
				continue
			}
			if d, ok := p.parseDelta(m.Payload, target); ok {
				deltas[int(m.From)] = d
			}
		}
	}
	// Outputs are decode results, identical on every honest node; take
	// them from the lowest-indexed contributor.
	src := deltas[ahead[0]]
	if src.from > p.round {
		return fmt.Errorf("csm: node %d at round %d: recovery delta only covers rounds >= %d", p.self, p.round, src.from)
	}
	for r := p.round; r < target; r++ {
		outs := src.rounds[r-src.from]
		p.digest.AddRound(r, outs)
	}
	// The repair path of the paper, reused: interpolate this node's
	// evaluation point from the up-to-date shares (ahead is sorted
	// ascending by construction, as RepairShare requires).
	shares := make([][]E, len(ahead))
	for i, idx := range ahead {
		shares[i] = vecFromWire(p.cfg.BaseField, deltas[idx].share)
	}
	newShare, _, err := p.core.code.RepairShare(ahead, shares, p.self)
	if err != nil {
		return fmt.Errorf("csm: node %d recovery repair: %w", p.self, err)
	}
	p.core.adoptShare(newShare)
	p.round = target
	return p.snapshot(true)
}

// snapshot rotates the durable store to a snapshot of the node's current
// state (no-op without durability): when the store's cadence is due after
// a batch, or forced after recovery changed the state outside the ordinary
// append path. The state is marshaled only when a rotation happens.
func (p *NodeProcess[E]) snapshot(force bool) error {
	if p.store == nil || !(force || p.store.snapshotDue(p.round)) {
		return nil
	}
	dstate, err := p.digest.MarshalBinary()
	if err != nil {
		return err
	}
	return p.store.snapshot(p.round, vecToWire(p.cfg.BaseField, p.core.codedState), dstate)
}
