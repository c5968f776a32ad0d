// Remote engine: one node of a CSM cluster running as its own OS
// process, driven over a transport.Link (real TCP sockets in production,
// the in-memory lock-step adapter in tests). Where Cluster simulates all
// N nodes in one process — and is therefore the deterministic oracle —
// a NodeProcess runs exactly one node's side of the round protocol:
//
//   - in Oracle mode node 0 is the sequencer (the paper's
//     trusted-sequencer consensus, Section 2.2): it broadcasts each
//     agreed command batch in the same gob batchMsg the simulated
//     consensus phase serializes;
//   - every node Lagrange-encodes its coded command row, applies the
//     transition to its coded state, and broadcasts the result in the
//     same fixed binary codec (encodeResult) the simulated path uses;
//   - every node collects all N results, Reed-Solomon-decodes them,
//     recovers every machine's output and next state, and re-encodes its
//     coded state.
//
// Because both the batch and result codecs are shared with the simulated
// cluster, a multi-process run's outputs are bit-identical to Cluster.Run
// on the same workload — TestRemoteMatchesCluster pins this over local
// links and over real TCP.
//
// Scope: how a batch is decided is pluggable (RemoteConfig.Consensus).
// Oracle keeps the trusted-sequencer split above; DolevStrong and PBFT
// replace it with the real BFT protocols running over the same link —
// see remote_consensus.go and RunWorkload — with PBFT's view change
// providing real leader failover for the multi-process engine.
// Byzantine behaviour *injection* and churn remain simulation-only
// knobs (see transport.ErrSimulationOnly).
package csm

import (
	"errors"
	"fmt"
	"slices"

	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/lcc"
	"codedsm/internal/nodeapi"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// Message kinds of the remote protocol. Result broadcasts reuse the
// simulated engine's resultKind; recoverKind and deltaKind carry the
// crash-recovery handshake (see Recover).
const (
	batchKind   = "csm-batch"
	stopKind    = "csm-stop"
	recoverKind = "csm-recover"
	deltaKind   = "csm-delta"
)

// SequencerID is the node that sequences batches in a multi-process
// cluster (the trusted-sequencer role of the paper's throughput model).
const SequencerID = 0

// ErrStopped is returned by sequencer operations after Stop, and wrapped
// into FollowBatch's done return.
var ErrStopped = errors.New("csm: remote cluster stopped")

// RemoteConfig configures one node of a multi-process CSM cluster. The
// same values (including Seed, via the transport) must be used by every
// process of the cluster.
type RemoteConfig[E comparable] struct {
	// BaseField is the arithmetic field (must match across processes).
	BaseField field.Field[E]
	// NewTransition builds the state transition function.
	NewTransition TransitionFactory[E]
	// K is the number of state machines.
	K int
	// MaxFaults is the fault budget b the code is sized for: up to b
	// corrupted results per round are corrected (see FaultyDetected), and
	// the capacity check K <= SyncMaxMachines(N, b, d) rejects up front a
	// config that could never decode under b faults. The Oracle execution
	// phase still waits for all N results.
	// Consensus modes additionally validate the protocol's own quorum
	// shape (PBFT: N >= 3b+1) and tolerate dead peers in the execution
	// phase by subset-decoding once enough results arrived.
	MaxFaults int
	// Consensus selects how each batch is decided. Oracle (the default)
	// is the trusted sequencer: node 0 leads, everyone else follows.
	// DolevStrong and PBFT run the real BFT protocols over the link —
	// every node drives the symmetric RunWorkload instead of the
	// Lead/Follow split (see remote_consensus.go).
	Consensus ConsensusKind
	// InitialStates holds K state vectors; nil means all-zero states.
	InitialStates [][]E
	// MaxTicksPerRound bounds the lock-step ticks a node waits for the
	// round's results before giving up (default 200).
	MaxTicksPerRound int
	// Durability persists this node's coded share, run digest, and
	// decided batches under a data directory (see durability.go). A
	// restarted process resumes from its last durable round; Recover
	// then reconciles any round skew with the peers.
	Durability *DurabilityConfig
}

// NodeProcess is one node of a multi-process CSM cluster.
type NodeProcess[E comparable] struct {
	cfg  RemoteConfig[E]
	link transport.Link
	ring *poly.Ring[E]
	bulk field.Bulk[E]
	code *lcc.Code[E]
	tr   *sm.Transition[E]

	self       int
	n          int
	round      int // workload round (not the link's lock-step round)
	codedState []E
	stopped    bool
	// startView is the PBFT view the previous instance decided in; new
	// instances start there so a dead leader costs one view change per
	// run, not one per batch.
	startView int

	// digest is the canonical run digest over all decoded outputs; with
	// durability it is persisted per round and survives restarts.
	digest *nodeapi.Digest
	// initialCoded keeps the round-0 share for recovery rollbacks.
	initialCoded []E
	// store is the durable state (nil without RemoteConfig.Durability).
	store *nodeStore

	// faulty is the sorted set of peers whose results a decode corrected,
	// cumulative over the run (see FaultyDetected).
	faulty []int

	// steady-state scratch, mirroring the simulated node's
	cmdScratch   []E
	stateScratch []E
}

// NewNodeProcess builds this process's node over the given link and
// distributes (the node's share of) the coded initial states.
func NewNodeProcess[E comparable](cfg RemoteConfig[E], link transport.Link) (*NodeProcess[E], error) {
	if cfg.BaseField == nil || cfg.NewTransition == nil {
		return nil, errors.New("csm: BaseField and NewTransition are required")
	}
	if link == nil {
		return nil, errors.New("csm: remote node needs a transport link")
	}
	n := link.N()
	if cfg.MaxFaults < 0 {
		return nil, fmt.Errorf("csm: negative MaxFaults %d", cfg.MaxFaults)
	}
	if err := ValidateRemoteConsensus(cfg.Consensus, n, cfg.MaxFaults); err != nil {
		return nil, err
	}
	if cfg.MaxTicksPerRound == 0 {
		cfg.MaxTicksPerRound = 200
	}
	tr, err := cfg.NewTransition(cfg.BaseField)
	if err != nil {
		return nil, fmt.Errorf("csm: building transition: %w", err)
	}
	d := tr.Degree()
	if maxK := lcc.SyncMaxMachines(n, cfg.MaxFaults, d); cfg.K > maxK {
		return nil, fmt.Errorf("csm: K=%d exceeds capacity %d for N=%d b=%d d=%d (synchronous)",
			cfg.K, maxK, n, cfg.MaxFaults, d)
	}
	ring := poly.NewRing[E](cfg.BaseField)
	code, err := lcc.New(ring, cfg.K, n)
	if err != nil {
		return nil, err
	}
	initial := cfg.InitialStates
	if initial == nil {
		initial = make([][]E, cfg.K)
		for k := range initial {
			initial[k] = field.ZeroVec(cfg.BaseField, tr.StateLen())
		}
	}
	if len(initial) != cfg.K {
		return nil, fmt.Errorf("csm: %d initial states for K=%d machines", len(initial), cfg.K)
	}
	for k, st := range initial {
		if len(st) != tr.StateLen() {
			return nil, fmt.Errorf("csm: initial state %d has length %d, want %d", k, len(st), tr.StateLen())
		}
	}
	p := &NodeProcess[E]{
		cfg:  cfg,
		link: link,
		ring: ring,
		bulk: ring.Bulk(),
		code: code,
		tr:   tr,
		self: int(link.Self()),
		n:    n,
	}
	p.codedState = lagrangeRowInto(p.bulk, cfg.BaseField.Zero(), code.Coeffs()[p.self], initial, nil, tr.StateLen())
	p.initialCoded = append([]E(nil), p.codedState...)
	p.digest = nodeapi.NewDigest()
	if cfg.Durability != nil {
		store, err := openNodeStore(*cfg.Durability, cfg.Consensus)
		if err != nil {
			return nil, err
		}
		p.store = store
		if store.round > 0 {
			// Resume from the last durable round: snapshot + WAL suffix.
			if len(store.share) != tr.StateLen() {
				return nil, fmt.Errorf("csm: durable share in %s has length %d, want %d (foreign data directory?)",
					cfg.Durability.Dir, len(store.share), tr.StateLen())
			}
			p.round = store.round
			p.codedState = vecFromWire(cfg.BaseField, store.share)
			if err := p.digest.UnmarshalBinary(store.digest); err != nil {
				return nil, fmt.Errorf("csm: restoring durable digest: %w", err)
			}
		}
	}
	return p, nil
}

// Self returns this process's node id.
func (p *NodeProcess[E]) Self() int { return p.self }

// IsSequencer reports whether this node sequences batches.
func (p *NodeProcess[E]) IsSequencer() bool { return p.self == SequencerID }

// Round returns the number of executed workload rounds.
func (p *NodeProcess[E]) Round() int { return p.round }

// Machines returns K, the number of coded state machines.
func (p *NodeProcess[E]) Machines() int { return p.cfg.K }

// Transition returns the node's transition function.
func (p *NodeProcess[E]) Transition() *sm.Transition[E] { return p.tr }

// DigestSum returns the node's canonical run digest over every decoded
// output so far — across restarts when durability is enabled.
func (p *NodeProcess[E]) DigestSum() string { return p.digest.Sum() }

// FaultyDetected returns the peers whose execution results this node's
// decodes have corrected so far, ascending. Correction is silent on the
// round path — outputs and digest are the oracle's regardless — so this is
// how an operator learns a peer is broken or hostile.
func (p *NodeProcess[E]) FaultyDetected() []int { return slices.Clone(p.faulty) }

// Durable reports whether the node persists state.
func (p *NodeProcess[E]) Durable() bool { return p.store != nil }

// Close releases the node's durable store (no-op without durability).
// It does not stop the cluster; see Stop.
func (p *NodeProcess[E]) Close() error {
	if p.store == nil {
		return nil
	}
	err := p.store.close()
	p.store = nil
	return err
}

// PadCommand returns the identity command the sequencer submits for
// machines with nothing pending (the all-zero vector, matching the
// ingress scheduler's default pad).
func (p *NodeProcess[E]) PadCommand() []E {
	return field.ZeroVec(p.cfg.BaseField, p.tr.CmdLen())
}

// LeadBatch sequences and executes one batch: the sequencer broadcasts
// the agreed commands (batch[j][k] is machine k's command in the batch's
// j-th round) and every node — this one included — runs the coded
// execution micro-steps. It returns the decoded outputs, one [K][]E
// slice per round. Only the sequencer may call it.
func (p *NodeProcess[E]) LeadBatch(batch [][][]E) ([][][]E, error) {
	if p.cfg.Consensus != Oracle {
		return nil, fmt.Errorf("%w: %v clusters drive RunWorkload, not LeadBatch", ErrConsensusConfig, p.cfg.Consensus)
	}
	if !p.IsSequencer() {
		return nil, fmt.Errorf("csm: node %d is not the sequencer (node %d leads)", p.self, SequencerID)
	}
	if p.stopped {
		return nil, ErrStopped
	}
	payload, err := p.encodeBatchProposal(batch)
	if err != nil {
		return nil, err
	}
	if p.store != nil {
		// Write-ahead: the decided batch hits disk before any peer sees it.
		if err := p.store.appendBatch(p.round, payload); err != nil {
			return nil, err
		}
	}
	if err := p.link.Broadcast(batchKind, payload); err != nil {
		return nil, err
	}
	// One lock-step tick carries the batch to the followers (they are
	// blocked in the Step of their FollowBatch).
	if _, err := p.link.Step(); err != nil {
		return nil, err
	}
	return p.executeSteps(batch)
}

// FollowBatch waits for the sequencer's next batch and executes it. done
// is true (with nil outputs) once the sequencer has broadcast the stop
// marker. Followers call it in a loop; Follow does exactly that.
func (p *NodeProcess[E]) FollowBatch() (outputs [][][]E, done bool, err error) {
	if p.cfg.Consensus != Oracle {
		return nil, false, fmt.Errorf("%w: %v clusters drive RunWorkload, not FollowBatch", ErrConsensusConfig, p.cfg.Consensus)
	}
	if p.IsSequencer() {
		return nil, false, errors.New("csm: the sequencer leads batches, it does not follow")
	}
	for {
		msgs, err := p.link.Step()
		if err != nil {
			return nil, false, err
		}
		for _, m := range msgs {
			if m.From != transport.NodeID(SequencerID) {
				continue
			}
			switch m.Kind {
			case stopKind:
				return nil, true, nil
			case batchKind:
				batch, ok := parseBatchMsg(p.cfg.BaseField, m.Payload, -1, p.cfg.K, p.tr.CmdLen())
				if !ok {
					return nil, false, fmt.Errorf("csm: node %d: malformed batch from sequencer", p.self)
				}
				var bm batchMsg
				if err := decodePayload(m.Payload, &bm); err == nil && bm.Round != p.round {
					return nil, false, fmt.Errorf("csm: node %d at round %d received batch for round %d (desynchronized)",
						p.self, p.round, bm.Round)
				}
				if p.store != nil {
					if err := p.store.appendBatch(p.round, m.Payload); err != nil {
						return nil, false, err
					}
				}
				out, err := p.executeSteps(batch)
				return out, false, err
			}
		}
		// A tick with no batch: the sequencer is idle (a serving cluster
		// between submissions). Keep stepping.
	}
}

// encodeBatchProposal validates the batch shape and serializes it as
// the canonical batchMsg payload for the node's current round — the
// exact bytes the simulated consensus phase proposes, which is what
// keeps run digests identical across engines and consensus modes.
func (p *NodeProcess[E]) encodeBatchProposal(batch [][][]E) ([]byte, error) {
	if len(batch) == 0 {
		return nil, errors.New("csm: empty batch")
	}
	for j, cmds := range batch {
		if len(cmds) != p.cfg.K {
			return nil, fmt.Errorf("csm: batch round %d: %d command vectors for K=%d machines", j, len(cmds), p.cfg.K)
		}
		for k, cmd := range cmds {
			if len(cmd) != p.tr.CmdLen() {
				return nil, fmt.Errorf("csm: batch round %d: command %d has length %d, want %d", j, k, len(cmd), p.tr.CmdLen())
			}
		}
	}
	wire := make([][]uint64, 0, len(batch)*p.cfg.K)
	for _, cmds := range batch {
		for _, cmd := range cmds {
			w := make([]uint64, len(cmd))
			for i, e := range cmd {
				w[i] = p.cfg.BaseField.Uint64(e)
			}
			wire = append(wire, w)
		}
	}
	return encodePayload(batchMsg{Round: p.round, Cmds: wire})
}

// executeSteps runs the coded execution micro-steps of one agreed batch.
// All N nodes run it in lock step; on return every node has decoded all
// rounds and re-encoded its coded state.
func (p *NodeProcess[E]) executeSteps(batch [][][]E) ([][][]E, error) {
	f := p.cfg.BaseField
	steps := len(batch)
	cmdLen := p.tr.CmdLen()
	// One amortized row encode covers the whole batch, as on the
	// simulated path: commands are state-independent.
	flat := make([][]E, p.cfg.K)
	for k := 0; k < p.cfg.K; k++ {
		row := make([]E, 0, steps*cmdLen)
		for j := 0; j < steps; j++ {
			row = append(row, batch[j][k]...)
		}
		flat[k] = row
	}
	p.cmdScratch = lagrangeRowInto(p.bulk, f.Zero(), p.code.Coeffs()[p.self], flat, p.cmdScratch, steps*cmdLen)
	// minShares is the exact erasure-decode threshold deg(f∘u)+1 =
	// (K-1)d+1: consensus modes fall back to it when a peer is dead
	// (e.g. a killed PBFT leader); Oracle mode always waits for all N.
	minShares := (p.cfg.K-1)*p.tr.Degree() + 1
	out := make([][][]E, 0, steps)
	for j := 0; j < steps; j++ {
		cmd := p.cmdScratch[j*cmdLen : (j+1)*cmdLen]
		result, err := p.tr.ApplyResult(p.codedState, cmd)
		if err != nil {
			return out, err
		}
		if err := p.link.Broadcast(resultKind, encodeResult(f, p.round, result)); err != nil {
			return out, err
		}
		received := map[int][]E{p.self: result}
		for ticks := 0; len(received) < p.n; ticks++ {
			if p.cfg.Consensus != Oracle && ticks >= quorumGraceTicks && len(received) >= minShares {
				// Stragglers got their grace; the subset decode below
				// recovers every output exactly from what arrived.
				break
			}
			if ticks >= p.cfg.MaxTicksPerRound {
				missing := make([]int, 0, p.n)
				for i := 0; i < p.n; i++ {
					if received[i] == nil {
						missing = append(missing, i)
					}
				}
				return out, fmt.Errorf("csm: node %d round %d: %w — no result from nodes %v after %d ticks",
					p.self, p.round, ErrRoundStuck, missing, ticks)
			}
			msgs, err := p.link.Step()
			if err != nil {
				return out, err
			}
			for _, m := range msgs {
				if m.Kind != resultKind {
					continue
				}
				round, res, ok := decodeResult(f, m.Payload)
				if !ok || round != p.round || len(res) != p.tr.ResultLen() {
					continue
				}
				received[int(m.From)] = res
			}
		}
		indices := make([]int, 0, p.n)
		//csmlint:allow detmap(keys are collected then sorted two lines down)
		for idx := range received {
			indices = append(indices, idx)
		}
		slices.Sort(indices)
		results := make([][]E, len(indices))
		for i, idx := range indices {
			results[i] = received[idx]
		}
		dec, err := p.code.DecodeOutputsSubset(indices, results, p.tr.Degree())
		if err != nil {
			return out, fmt.Errorf("csm: node %d decode: %w", p.self, err)
		}
		// A decode that succeeded has corrected every in-budget corrupted
		// result, exactly as the simulated cluster does: carry on with the
		// corrected outputs and remember who lied.
		p.faulty = ints.UnionSorted(p.faulty, dec.FaultyNodes)
		outputs := make([][]E, p.cfg.K)
		nextStates := make([][]E, p.cfg.K)
		for k := 0; k < p.cfg.K; k++ {
			next, o, err := p.tr.SplitResult(dec.Outputs[k])
			if err != nil {
				return out, err
			}
			nextStates[k] = next
			outputs[k] = o
		}
		newCoded := lagrangeRowInto(p.bulk, f.Zero(), p.code.Coeffs()[p.self], nextStates, p.stateScratch, p.tr.StateLen())
		p.stateScratch = p.codedState
		p.codedState = newCoded
		p.round++
		out = append(out, outputs)
		wireOuts := make([][]uint64, p.cfg.K)
		for k := range outputs {
			wireOuts[k] = vecToWire(f, outputs[k])
		}
		p.digest.AddRound(p.round-1, wireOuts)
		if p.store != nil {
			dstate, err := p.digest.MarshalBinary()
			if err != nil {
				return out, err
			}
			if err := p.store.appendApplied(p.round-1, vecToWire(f, p.codedState), dstate, wireOuts); err != nil {
				return out, err
			}
		}
	}
	if p.store != nil {
		dstate, err := p.digest.MarshalBinary()
		if err != nil {
			return out, err
		}
		if err := p.store.maybeSnapshot(p.round, vecToWire(f, p.codedState), dstate, false); err != nil {
			return out, err
		}
	}
	return out, nil
}

// Stop broadcasts the stop marker and runs the final lock-step tick that
// delivers it, after which every follower's FollowBatch returns done.
// Only the sequencer may call it; it is idempotent.
func (p *NodeProcess[E]) Stop() error {
	if !p.IsSequencer() {
		return errors.New("csm: only the sequencer stops the cluster")
	}
	if p.stopped {
		return nil
	}
	p.stopped = true
	if err := p.link.Broadcast(stopKind, nil); err != nil {
		return err
	}
	_, err := p.link.Step()
	return err
}

// Lead runs a whole workload as the sequencer — rounds grouped into
// batches of batchSize (<= 1 means one round per batch) — then stops the
// cluster. It returns the decoded outputs, one [K][]E per round,
// bit-identical to Cluster.Run's RoundResult.Outputs on the same seeded
// workload.
func (p *NodeProcess[E]) Lead(rounds [][][]E, batchSize int) ([][][]E, error) {
	if batchSize < 1 {
		batchSize = 1
	}
	out := make([][][]E, 0, len(rounds))
	for start := 0; start < len(rounds); start += batchSize {
		end := min(start+batchSize, len(rounds))
		res, err := p.LeadBatch(rounds[start:end])
		out = append(out, res...)
		if err != nil {
			return out, err
		}
	}
	if err := p.Stop(); err != nil {
		return out, err
	}
	return out, nil
}

// Follow executes sequencer batches until the stop marker arrives. It
// returns the decoded outputs of every executed round.
func (p *NodeProcess[E]) Follow() ([][][]E, error) {
	var out [][][]E
	for {
		res, done, err := p.FollowBatch()
		out = append(out, res...)
		if err != nil {
			return out, err
		}
		if done {
			return out, nil
		}
	}
}
