// Remote engine: one node of a CSM cluster running as its own OS
// process, driven over a transport.Link (real TCP sockets in production,
// the in-memory lock-step adapter in tests). Where Cluster simulates all
// N nodes in one process — and is therefore the deterministic oracle —
// a NodeProcess runs exactly one node's side of the round protocol:
//
//   - in Oracle mode node 0 is the sequencer (the paper's
//     trusted-sequencer consensus, Section 2.2): it broadcasts each
//     agreed command batch as encodeBatchMsg's payload, the bytes the
//     simulated consensus phase proposes;
//   - every node runs the coded step on the same stepCore (step.go) the
//     simulated node embeds: encode its coded command row, apply the
//     transition to its coded state, broadcast the result (appendResult,
//     tagged with the SHA-256 of the batch payload it was computed on),
//     collect the peers' results for that batch, decode — the primed
//     verified-subset check first, sticky suspects and all — and
//     re-encode its state.
//
// Both engines are set up by newEngine (fault budget, consensus shape,
// transition, Table 2 capacity, code, initial states) and decide batches
// with newInstance's consensus instances. The process engine owns only
// what differs from the simulation: results travel over the link's
// lock-step ticks, step 0 of a PBFT-decided batch starts on the prepared
// batch before the decision (remote_consensus.go; the tag keeps a result
// computed on any other batch from being counted), a consensus-mode node
// stops waiting for stragglers after a grace period, and each round ends
// in the run digest and the WAL. One core and one pair of codecs is why a
// multi-process run's outputs are bit-identical to Cluster.Run on the
// same workload — TestRemoteMatchesCluster pins this over local links and
// over real TCP.
//
// How a batch is decided is RemoteConfig.Consensus: Oracle keeps the
// trusted-sequencer split above; DolevStrong and PBFT run over the same
// link (remote_consensus.go, RunWorkload), PBFT's view change giving the
// multi-process engine real leader failover. Byzantine behaviour
// injection and churn remain simulation-only (transport.ErrSimulationOnly).
package csm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"

	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/nodeapi"
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
	// Lead/Follow split (see remote_consensus.go). The machines start
	// from all-zero states.
	Consensus ConsensusKind
	// Durability persists this node's coded share, run digest, and
	// decoded outputs under a data directory (see durability.go). A
	// restarted process resumes from its last durable round; Recover
	// then reconciles any round skew with the peers.
	Durability *DurabilityConfig
}

// NodeProcess is one node of a multi-process CSM cluster.
type NodeProcess[E comparable] struct {
	cfg  RemoteConfig[E]
	link transport.Link
	tr   *sm.Transition[E]
	// core is the node's coded step (shared with the simulated node),
	// built over the plain field, and dec the buffer it decodes into.
	core stepCore[E]
	dec  nodeDecode[E]

	self    int
	n       int
	round   int // workload round (not the link's lock-step round)
	stopped bool
	// startView is the view the last PBFT instance decided in; the next
	// instance starts there (nextView).
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
	eng, err := newEngine(cfg.BaseField, cfg.NewTransition, cfg.Consensus, transport.Sync, cfg.K, n, cfg.MaxFaults, nil)
	if err != nil {
		return nil, err
	}
	tr := eng.tr
	self := int(link.Self())
	p := &NodeProcess[E]{
		cfg:  cfg,
		link: link,
		tr:   tr,
		core: newStepCore(eng.code, tr, eng.ring.Bulk(), self, cfg.MaxFaults),
		self: self,
		n:    n,
	}
	p.initialCoded = p.core.lagrangeRowInto(nil, tr.StateLen(), eng.initial)
	p.core.codedState = slices.Clone(p.initialCoded)
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
			p.core.codedState = vecFromWire(cfg.BaseField, store.share)
			if err := p.digest.UnmarshalBinary(store.digest); err != nil {
				return nil, fmt.Errorf("csm: restoring durable digest: %w", err)
			}
		}
	}
	return p, nil
}

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
	if err := p.link.Broadcast(batchKind, payload); err != nil {
		return nil, err
	}
	// One lock-step tick carries the batch to the followers (they are
	// blocked in the Step of their FollowBatch).
	if _, err := p.link.Step(); err != nil {
		return nil, err
	}
	return p.commitBatch(p.round, batch, sha256.Sum256(payload), nil)
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
				batch, round, ok := parseBatchMsg(p.cfg.BaseField, m.Payload, -1, p.cfg.K, p.tr.CmdLen())
				if !ok {
					return nil, false, fmt.Errorf("csm: node %d: malformed batch from sequencer", p.self)
				}
				out, err := p.commitBatch(round, batch, sha256.Sum256(m.Payload), nil)
				return out, false, err
			}
		}
		// A tick with no batch: the sequencer is idle (a serving cluster
		// between submissions). Keep stepping.
	}
}

// encodeBatchProposal validates the batch shape and serializes it as
// the canonical payload for the node's current round.
func (p *NodeProcess[E]) encodeBatchProposal(batch [][][]E) ([]byte, error) {
	if err := validateBatchShape(batch, p.cfg.K, p.tr.CmdLen()); err != nil {
		return nil, err
	}
	return encodeBatchMsg(p.cfg.BaseField, p.round, batch), nil
}

// batchDesyncError reports a decided batch that was proposed for another
// round than the one this node is about to execute: the node and its
// peers disagree on where the run stands, and nothing was executed.
type batchDesyncError struct {
	node, at, got int
}

func (e *batchDesyncError) Error() string {
	return fmt.Sprintf("csm: node %d at round %d was handed the batch for round %d (desynchronized)", e.node, e.at, e.got)
}

// commitBatch is the one path from a decided batch to executed rounds,
// whoever decided it (this sequencer, the sequencer's broadcast, a BFT
// instance): check that the batch was proposed for this node's round, run
// the coded micro-steps. tag is the SHA-256 of the batch payload, which
// every result of the batch carries; spec is what the node already holds
// of step 0 from its consensus instance (nil: nothing). The batch itself
// is never logged. A NodeProcess cannot re-execute a batch alone — the
// decode needs the peers' results — so recovery is a state restore from
// the applied records executeSteps writes after each decode, plus
// Recover's delta from the peers; logged intent would have no reader. A
// durable round is one applied record and one fsync, on disk before the
// outputs are returned.
func (p *NodeProcess[E]) commitBatch(round int, agreed [][][]E, tag [32]byte, spec *speculation[E]) ([][][]E, error) {
	if round != p.round {
		return nil, &batchDesyncError{node: p.self, at: p.round, got: round}
	}
	return p.executeSteps(agreed, tag, spec)
}

// executeSteps runs the coded execution micro-steps of one agreed batch
// on the node's step core. All N nodes run it in lock step; on return
// every node has decoded all rounds and re-encoded its coded state. When
// spec holds this node's own step-0 result on the very batch tag names,
// that result — already broadcast with the commit — is step 0's; any
// other speculation is dropped, which costs one apply and leaves no trace
// in the coded state (apply never writes it).
func (p *NodeProcess[E]) executeSteps(batch [][][]E, tag [32]byte, spec *speculation[E]) ([][][]E, error) {
	f := p.cfg.BaseField
	s := &p.core
	reuse := spec != nil && spec.result != nil && spec.tag == tag
	if !reuse {
		s.encodeCommands(flattenBatch(batch, p.tr.CmdLen()))
	}
	// minShares is the exact erasure-decode threshold deg(f∘u)+1 =
	// (K-1)d+1: consensus modes fall back to it when a peer is dead
	// (e.g. a killed PBFT leader); Oracle mode always waits for all N.
	minShares := (p.cfg.K-1)*p.tr.Degree() + 1
	out := make([][][]E, 0, len(batch))
	for j := range batch {
		s.resetStep()
		// delivered: the peers hold this node's result. A reused
		// speculation went out with the commit, a tick before the
		// decision; a result broadcast here reaches the peers only with
		// the next Step, which the node takes even when it already holds
		// every result, so that all nodes leave the step on the same tick.
		delivered := j == 0 && reuse
		var result []E
		if delivered {
			result = spec.result
		} else {
			var err error
			if result, err = s.apply(j); err != nil {
				return out, err
			}
			if err := p.link.Broadcast(resultKind, s.resultPayload(p.round, tag, result)); err != nil {
				return out, err
			}
		}
		s.accept(p.self, result)
		if j == 0 && spec != nil {
			s.ingest(slices.Values(spec.early), p.round, tag)
		}
		for ticks := 0; !delivered || s.receivedCount < p.n; ticks++ {
			if p.cfg.Consensus != Oracle && ticks >= quorumGraceTicks && s.receivedCount >= minShares {
				// Stragglers got their grace; the subset decode below
				// recovers every output exactly from what arrived.
				break
			}
			if ticks >= maxTicksPerRound {
				missing := make([]int, 0, p.n)
				for i, ok := range s.got {
					if !ok {
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
			delivered = true
			s.ingest(slices.Values(msgs), p.round, tag)
		}
		dec := &p.dec
		if err := s.absorb(dec); err != nil {
			return out, err
		}
		p.faulty = ints.UnionSorted(p.faulty, dec.FaultyNodes)
		p.round++
		// The outputs leave the engine, so they are copied out of the
		// decode buffer the next step reuses.
		outputs := make([][]E, len(dec.Outputs))
		outLen := p.tr.OutLen()
		flat := make([]E, len(outputs)*outLen)
		for m := range outputs {
			outputs[m] = flat[m*outLen : (m+1)*outLen : (m+1)*outLen]
			copy(outputs[m], dec.output(m))
		}
		out = append(out, outputs)
		wireOuts := matToWire(f, outputs)
		p.digest.AddRound(p.round-1, wireOuts)
		if p.store != nil {
			dstate, err := p.digest.MarshalBinary()
			if err != nil {
				return out, err
			}
			if err := p.store.appendApplied(p.round-1, vecToWire(f, s.codedState), dstate, wireOuts); err != nil {
				return out, err
			}
		}
	}
	return out, p.snapshot(false)
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
	out, err := runBatches(rounds, batchSize, p.LeadBatch)
	if err != nil {
		return out, err
	}
	return out, p.Stop()
}

// runBatches feeds a workload to run in batches of batchSize rounds and
// concatenates the decoded outputs, stopping at the first error with the
// outputs gathered so far.
func runBatches[E comparable](rounds [][][]E, batchSize int, run func([][][]E) ([][][]E, error)) ([][][]E, error) {
	batchSize = max(batchSize, 1)
	out := make([][][]E, 0, len(rounds))
	for start := 0; start < len(rounds); start += batchSize {
		res, err := run(rounds[start:min(start+batchSize, len(rounds))])
		out = append(out, res...)
		if err != nil {
			return out, err
		}
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
