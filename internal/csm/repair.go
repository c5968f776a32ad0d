// Membership, churn, and coded-state repair: the dynamic side of the CSM
// engine. The paper's central claim (Sections 2.1, 7) is that
// Lagrange-coded state survives a *dynamic* adversary — corruptions move
// between nodes across epochs, nodes crash and rejoin — because any
// b-bounded honest subset of shares determines the encoding polynomial,
// so a replacement node's share is a single Lagrange evaluation
// (lcc.RepairShare) rather than a re-download of all K states.
//
// # Fault budget
//
// Behaviors are budgeted by their Reed-Solomon cost (Table 2): an active
// misbehaviour (WrongResult, Equivocate, BadLeader, and Silent — see
// faultWeight for why silence is an error, not an erasure) consumes two
// parity symbols, a crash consumes one, and the total may not exceed 2b.
// A cluster sized for b Byzantine faults therefore tolerates, e.g., b
// errors, or 2b crashes, or any mix in between — every configuration the
// budget admits decodes, because the sync capacity N - dim ≥ 2b+1 gives
// rows - dim = N - s - dim ≥ 2e + 1 whenever 2e + s ≤ 2b. Additional
// rules keep the other thresholds intact: at least b+1 nodes must stay
// honest (clients need b+1 matching replies, Table 2); in partial
// synchrony at most b nodes may be non-sending (the N-b decode threshold
// must stay reachable); and under PBFT at most N-2b-1 nodes may be
// crashed (the 2b+1 prepare/commit quorum needs that many live voters —
// silent nodes still vote, their silence is execution-phase only).
package csm

import (
	"fmt"
	"math/rand/v2"

	"codedsm/internal/field"
	"codedsm/internal/transport"
)

// faultWeight returns the Reed-Solomon budget a behavior consumes: an
// erasure (Crashed, Recovering — every decoder knows the coordinate is
// absent) costs one parity symbol, any active misbehaviour costs two (an
// unknown error needs both a location and a magnitude). Silent is budgeted
// as an error, not an erasure: a silent node withholds its execution
// result but is still adversarial wherever participation is unavoidable —
// consensus votes, client replies, repair contributions — so the engine
// cannot treat its coordinate as reliably absent.
func faultWeight(b Behavior) int {
	switch b {
	case Honest:
		return 0
	case Crashed, Recovering:
		return 1
	default:
		return 2
	}
}

// sendsNothing reports whether a behavior contributes no execution-phase
// result (its coordinate is missing from every decoder's received word).
func sendsNothing(b Behavior) bool {
	return b == Silent || b == Crashed || b == Recovering
}

// budgetCheck validates a complete behavior assignment (entries may
// include Honest, which is ignored) against the cluster fault rules; see
// the package comment above. Silent nodes still vote in consensus (their
// silence is execution-phase only), so the PBFT quorum rule counts only
// crashed/recovering nodes.
func budgetCheck(n, maxFaults int, mode transport.Mode, consensus ConsensusKind, behaviors map[int]Behavior) error {
	load, nonHonest, dark, crashed := 0, 0, 0, 0
	//csmlint:allow detmap(commutative counting fold over behaviors; keys are never read)
	for _, b := range behaviors {
		w := faultWeight(b)
		if w == 0 {
			continue
		}
		load += w
		nonHonest++
		if sendsNothing(b) {
			dark++
		}
		if b == Crashed || b == Recovering {
			crashed++
		}
	}
	if load > 2*maxFaults {
		return fmt.Errorf("%w: fault load %d (an error costs 2 parity symbols, an erasure 1) exceeds the budget 2b=%d", ErrFaultBudgetExceeded, load, 2*maxFaults)
	}
	if nonHonest > n-maxFaults-1 {
		return fmt.Errorf("%w: %d faulty nodes leave fewer than the b+1=%d honest repliers output delivery needs (Table 2)", ErrQuorumUnreachable, nonHonest, maxFaults+1)
	}
	if mode == transport.PartialSync && dark > maxFaults {
		return fmt.Errorf("%w: %d non-sending nodes exceed b=%d: the N-b partially synchronous decode threshold would be unreachable", ErrQuorumUnreachable, dark, maxFaults)
	}
	if consensus == PBFT && crashed > n-2*maxFaults-1 {
		return fmt.Errorf("%w: %d crashed nodes leave fewer than the 2b+1=%d voters the PBFT quorum needs", ErrQuorumUnreachable, crashed, 2*maxFaults+1)
	}
	return nil
}

// behaviorsWith is the cluster's current behavior assignment with one
// node's behavior overridden — the prospective pattern a membership change
// is checked against.
func (c *Cluster[E]) behaviorsWith(node int, b Behavior) map[int]Behavior {
	out := make(map[int]Behavior, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.behavior
	}
	out[node] = b
	return out
}

// RepairStats accounts the cost of coded-state repairs.
type RepairStats struct {
	// Repairs counts successful share reconstructions; Failed counts
	// repair attempts that could not complete (the node stays Recovering).
	Repairs, Failed int
	// Ops is the accumulated field-operation cost of all repairs — the
	// per-replacement price Section 7 (Remark 5) argues is what makes CSM
	// compatible with frequent membership rotation. Repair work is charged
	// to the shared cluster counters too; this field isolates it.
	Ops field.OpCounts
}

// RepairStats returns the accumulated repair-cost accounting.
func (c *Cluster[E]) RepairStats() RepairStats { return c.repairs }

// ---- Churn schedule ----

// ChurnOp selects what a ChurnEvent does to its node.
type ChurnOp int

const (
	// ChurnCrash fail-stops the node: its traffic drops, its coded state
	// is lost, and it leaves consensus and execution until repaired.
	ChurnCrash ChurnOp = iota
	// ChurnRejoin brings a crashed node back: the transport reconnects it
	// and a repair round reconstructs its coded share from the surviving
	// nodes (lcc.RepairShare) before it re-enters consensus and execution.
	ChurnRejoin
	// ChurnCorrupt hands the node to the adversary with the event's
	// Behavior (the dynamic adversary seizing a new target).
	ChurnCorrupt
	// ChurnRelease returns a corrupted node to honesty (the adversary
	// letting go to move elsewhere, as in post-facto corruption models).
	ChurnRelease
)

// String implements fmt.Stringer.
func (op ChurnOp) String() string {
	switch op {
	case ChurnCrash:
		return "crash"
	case ChurnRejoin:
		return "rejoin"
	case ChurnCorrupt:
		return "corrupt"
	case ChurnRelease:
		return "release"
	default:
		return fmt.Sprintf("ChurnOp(%d)", int(op))
	}
}

// ChurnEvent is one scheduled membership or adversary change, applied at
// the boundary of the consensus instance covering engine round Round
// (engine rounds advance for skipped instances too; see Config.Churn).
type ChurnEvent struct {
	Round int
	Node  int
	Op    ChurnOp
	// Behavior is the misbehaviour ChurnCorrupt installs; other ops ignore
	// it. Honest is rejected (use ChurnRelease), as are Crashed and
	// Recovering (use ChurnCrash / ChurnRejoin).
	Behavior Behavior
}

func (ev ChurnEvent) validate(n int) error {
	if ev.Round < 0 {
		return fmt.Errorf("event %v node %d: negative round %d", ev.Op, ev.Node, ev.Round)
	}
	if ev.Node < 0 || ev.Node >= n {
		return fmt.Errorf("round %d %v: node %d out of range [0,%d)", ev.Round, ev.Op, ev.Node, n)
	}
	switch ev.Op {
	case ChurnCrash, ChurnRejoin, ChurnRelease:
	case ChurnCorrupt:
		switch ev.Behavior {
		case Honest:
			return fmt.Errorf("round %d: corrupt node %d to Honest: use ChurnRelease", ev.Round, ev.Node)
		case Crashed, Recovering:
			return fmt.Errorf("round %d: corrupt node %d to %v: use ChurnCrash/ChurnRejoin", ev.Round, ev.Node, ev.Behavior)
		}
	default:
		return fmt.Errorf("round %d node %d: unknown churn op %d", ev.Round, ev.Node, int(ev.Op))
	}
	return nil
}

// apply performs the event on the cluster.
func (c *Cluster[E]) apply(ev ChurnEvent) error {
	var err error
	switch ev.Op {
	case ChurnCrash:
		err = c.Crash(ev.Node)
	case ChurnRejoin:
		err = c.Rejoin(ev.Node)
	case ChurnCorrupt:
		err = c.Corrupt(ev.Node, ev.Behavior)
	case ChurnRelease:
		err = c.Corrupt(ev.Node, Honest)
	default:
		err = fmt.Errorf("unknown churn op %d", int(ev.Op))
	}
	if err != nil {
		return fmt.Errorf("csm: churn round %d (%v node %d): %w", ev.Round, ev.Op, ev.Node, err)
	}
	return nil
}

// applyChurn runs the churn boundary for the consensus instance covering
// workload rounds [start, start+steps): all static schedule entries up to
// the window's end (swept once by cursor — an entry scheduled for an
// already-passed round fires at the next boundary), then the ChurnFn
// events for each covered round. The epoch advances iff anything applied.
// It runs on the driving goroutine before the instance's consensus phase,
// which is what keeps churn runs bit-identical across the sequential,
// parallel, and pipelined engines.
func (c *Cluster[E]) applyChurn(start, steps int) error {
	applied := false
	for c.churnAt < len(c.cfg.Churn) && c.cfg.Churn[c.churnAt].Round < start+steps {
		if err := c.apply(c.cfg.Churn[c.churnAt]); err != nil {
			return err
		}
		c.churnAt++
		applied = true
	}
	if c.cfg.ChurnFn != nil {
		for r := start; r < start+steps; r++ {
			for _, ev := range c.cfg.ChurnFn(r) {
				if err := ev.validate(c.cfg.N); err != nil {
					return fmt.Errorf("csm: ChurnFn(%d): %w", r, err)
				}
				if err := c.apply(ev); err != nil {
					return err
				}
				applied = true
			}
		}
	}
	if applied {
		c.epoch++
	}
	return nil
}

// MovingAdversary returns a ChurnFn implementing the paper's Section 7
// dynamic adversary: every epochLen rounds the adversary releases its
// current b corruptions and seizes b freshly chosen nodes (deterministic
// per seed, so runs remain reproducible). CSM survives it by design —
// there is no small committee whose capture matters, only the
// simultaneous count — which is exactly what the sharded-ledger story
// contrasts with random allocation. The corruption count must fit the
// node count (picking b distinct targets of n must terminate), epochLen
// must be positive, and behavior must be an active misbehaviour.
func MovingAdversary(n, b, epochLen int, behavior Behavior, seed uint64) (func(round int) []ChurnEvent, error) {
	if n < 1 || b < 0 || b > n {
		return nil, fmt.Errorf("csm: moving adversary: %d corruptions of %d nodes", b, n)
	}
	if epochLen < 1 {
		return nil, fmt.Errorf("csm: moving adversary: non-positive epoch length %d", epochLen)
	}
	switch behavior {
	case Honest, Crashed, Recovering:
		return nil, fmt.Errorf("csm: moving adversary: %v is not a corruption", behavior)
	}
	pick := func(epoch int) []int {
		rng := rand.New(rand.NewPCG(seed, uint64(epoch)+0xadf))
		seen := make(map[int]bool, b)
		out := make([]int, 0, b)
		for len(out) < b {
			i := rng.IntN(n)
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
		return out
	}
	return func(round int) []ChurnEvent {
		if round%epochLen != 0 {
			return nil
		}
		epoch := round / epochLen
		var evs []ChurnEvent
		if epoch > 0 {
			for _, i := range pick(epoch - 1) {
				evs = append(evs, ChurnEvent{Round: round, Node: i, Op: ChurnRelease})
			}
		}
		for _, i := range pick(epoch) {
			evs = append(evs, ChurnEvent{Round: round, Node: i, Op: ChurnCorrupt, Behavior: behavior})
		}
		return evs
	}, nil
}

// ---- Membership operations ----

// Corrupt changes a node's behaviour mid-run, modelling the dynamic
// (adaptive) adversary of Section 7: corruptions may move between nodes
// across epochs, but the *simultaneous* fault load may never exceed the
// budget (see the package comment). Pass Honest to release a node (the
// adversary "un-corrupts" it to move elsewhere, as in post-facto
// corruption models). Crashes are not corruptions — use Crash and Rejoin.
func (c *Cluster[E]) Corrupt(node int, behavior Behavior) error {
	if node < 0 || node >= c.cfg.N {
		return fmt.Errorf("csm: corrupt: node %d out of range", node)
	}
	if behavior == Crashed || behavior == Recovering {
		return fmt.Errorf("csm: corrupt node %d to %v: use Crash/Rejoin", node, behavior)
	}
	if cur := c.nodes[node].behavior; cur == Crashed || cur == Recovering {
		return fmt.Errorf("csm: corrupt node %d: node is %v (repair it first)", node, cur)
	}
	if err := budgetCheck(c.cfg.N, c.cfg.MaxFaults, c.cfg.Mode, c.cfg.Consensus, c.behaviorsWith(node, behavior)); err != nil {
		// budgetCheck errors carry the csm-prefixed sentinels already.
		return fmt.Errorf("corrupting node %d: %w", node, err)
	}
	c.setBehavior(node, behavior)
	return nil
}

// Crash fail-stops a node: the transport drops its traffic in both
// directions, its coded state is lost, and it leaves consensus and
// execution until Rejoin repairs it. A crash is an erasure — it consumes
// one parity symbol of the fault budget where an error consumes two.
func (c *Cluster[E]) Crash(node int) error {
	if node < 0 || node >= c.cfg.N {
		return fmt.Errorf("csm: crash: node %d out of range", node)
	}
	if cur := c.nodes[node].behavior; cur == Crashed || cur == Recovering {
		return fmt.Errorf("csm: crash node %d: already %v", node, cur)
	}
	if err := budgetCheck(c.cfg.N, c.cfg.MaxFaults, c.cfg.Mode, c.cfg.Consensus, c.behaviorsWith(node, Crashed)); err != nil {
		// budgetCheck errors carry the csm-prefixed sentinels already.
		return fmt.Errorf("crashing node %d: %w", node, err)
	}
	if err := c.net.SetDown(transport.NodeID(node), true); err != nil {
		return err
	}
	c.setBehavior(node, Crashed)
	n := c.nodes[node]
	n.codedState = field.ZeroVec(c.cfg.BaseField, c.tr.StateLen()) // the share is gone
	n.resetStep()
	return nil
}

// Rejoin brings a crashed node back: the transport reconnects it, a
// repair round reconstructs its coded share from the surviving nodes
// (RepairNode), and only then does it re-enter consensus and execution as
// Honest. If the repair cannot complete the node is left Recovering —
// reachable, but an erasure until a retried Rejoin succeeds.
func (c *Cluster[E]) Rejoin(node int) error {
	if node < 0 || node >= c.cfg.N {
		return fmt.Errorf("csm: rejoin: node %d out of range", node)
	}
	if cur := c.nodes[node].behavior; cur != Crashed && cur != Recovering {
		return fmt.Errorf("csm: rejoin node %d: node is %v, not crashed", node, cur)
	}
	if err := c.net.SetDown(transport.NodeID(node), false); err != nil {
		return err
	}
	c.setBehavior(node, Recovering)
	if err := c.RepairNode(node); err != nil {
		c.repairs.Failed++
		return fmt.Errorf("csm: rejoin node %d: %w", node, err)
	}
	c.setBehavior(node, Honest)
	return nil
}

// setBehavior installs a behavior on the node and mirrors it in the
// config's Byzantine map (kept consistent for consensus-phase lookups).
func (c *Cluster[E]) setBehavior(node int, behavior Behavior) {
	c.nodes[node].behavior = behavior
	if c.cfg.Byzantine == nil {
		c.cfg.Byzantine = make(map[int]Behavior)
	}
	if behavior == Honest {
		delete(c.cfg.Byzantine, node)
	} else {
		c.cfg.Byzantine[node] = behavior
	}
}

// RepairNode reconstructs node i's coded state from the *other* nodes'
// coded states via lcc.RepairShare: the share vector is a Reed-Solomon
// codeword of the encoding polynomial u_t (degree K-1) at the alphas, so
// any correct subset determines u_t and the repaired node re-derives
// S̃_i = u_t(α_i) without downloading all K states — this is what makes
// node replacement cheap in CSM, in contrast to the re-download cost that
// rules out frequent group rotation in random-allocation schemes
// (Section 7, Remark 5). The reconstruction is bit-identical to a fresh
// encode of the current machine states.
//
// Down (crashed/recovering) nodes contribute nothing; Byzantine nodes
// contribute garbage states, which the decoder corrects like any other
// error. The field-operation cost is accumulated in RepairStats.
func (c *Cluster[E]) RepairNode(i int) error {
	if i < 0 || i >= c.cfg.N {
		return fmt.Errorf("csm: repair: node %d out of range", i)
	}
	stateLen := c.tr.StateLen()
	indices := make([]int, 0, c.cfg.N-1)
	contributions := make([][]E, 0, c.cfg.N-1)
	for j, n := range c.nodes {
		if j == i || n.behavior == Crashed || n.behavior == Recovering {
			continue
		}
		indices = append(indices, j)
		if n.behavior != Honest {
			contributions = append(contributions, field.RandVec(c.cfg.BaseField, c.rng, stateLen))
			continue
		}
		contributions = append(contributions, n.codedState)
	}
	before := c.counting.Counts()
	repaired, _, err := c.code.RepairShare(indices, contributions, i)
	if err != nil {
		return fmt.Errorf("csm: repair of node %d: %w", i, err)
	}
	after := c.counting.Counts()
	c.repairs.Repairs++
	c.repairs.Ops.Adds += after.Adds - before.Adds
	c.repairs.Ops.Muls += after.Muls - before.Muls
	c.repairs.Ops.Invs += after.Invs - before.Invs
	c.nodes[i].adoptShare(repaired)
	return nil
}
