// Pluggable batch consensus for the multi-process engine.
//
// The Oracle engine (remote.go) splits the cluster into one sequencer
// and N-1 followers: the batch IS whatever node 0 broadcasts. The
// consensus modes below remove that asymmetry. Every node derives the
// same seeded workload, serializes each batch into the identical
// canonical payload (encodeBatchMsg, the bytes the simulated consensus
// phase proposes), and decides it over its transport.Link with the
// instance the simulated Cluster builds (newInstance): Dolev-Strong under
// synchrony, PBFT under partial synchrony, whose view nextView carries
// across instances. The decided payload, not the local proposal, is what
// gets parsed and executed, so a node that somehow proposed stale bytes
// still executes the agreed batch.
//
// Under PBFT a round is two lock-step ticks, as under the sequencer.
// Every node proposes the same bytes, so each backup prepares its own
// proposal at the start view (package pbft): every node is prepared
// after one tick and decided after two. The node does not wait for the
// decision to execute (Castro & Liskov's tentative execution): collect,
// the tick hook it hands consensus.DriveLink, encodes the prepared
// batch's commands, applies step 0 and broadcasts the result in the
// tick that carries the node's commit, so the result exchange shares
// that tick instead of following the decision. Every result carries the
// SHA-256 of the batch payload it was computed on (the tag of the result
// codec, csm.go). During the instance a node keeps the last result each
// peer sent; at the decision it counts only those tagged with the
// decided batch, and keeps its own speculation only if that was on the
// decided batch too. Otherwise — a view change decided another value,
// or the node never prepared because its own proposal differed — it
// drops the speculation and runs step 0 on the decided batch after the
// decision, as every node used to. A dropped speculation costs one
// command encode and one apply; the coded state changes only in absorb,
// so nothing has to be undone. Dolev-Strong runs through the same driver
// and never speculates: its node has no prepared value.
//
// Because the step core (step.go) and both codecs are shared with the
// simulated cluster, the run digest of a consensus-mode multi-process
// run is bit-identical to the simulated Oracle cluster on the same
// workload — consensus changes who decides, never what is computed.
// PBFT additionally gives the multi-process engine its first real
// leader-failover path: if the current leader's process dies, the
// survivors' view change installs the next leader and the workload
// completes (TestRemotePBFTLeaderFailover pins this over real TCP).
package csm

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"codedsm/internal/consensus"
	"codedsm/internal/consensus/dolevstrong"
	"codedsm/internal/consensus/pbft"
	"codedsm/internal/transport"
)

// quorumGraceTicks is how many extra lock-step ticks a consensus-mode
// node waits for stragglers' results once it already holds an
// erasure-decodable subset. Oracle mode always waits for all N (honest
// deployment); consensus modes must make progress when a peer is dead —
// the very failure PBFT's view change just routed around.
const quorumGraceTicks = 8

// ValidateRemoteConsensus eagerly checks a consensus selection against
// the cluster shape, before any socket is opened. Failures wrap
// ErrConsensusConfig so callers (csmnode bootstrap) can classify them.
func ValidateRemoteConsensus(kind ConsensusKind, n, maxFaults int) error {
	if maxFaults < 0 {
		return fmt.Errorf("%w: negative fault budget b=%d", ErrConsensusConfig, maxFaults)
	}
	switch kind {
	case Oracle:
		return nil
	case DolevStrong:
		// Dolev-Strong tolerates any b < N, but needs the signature chains
		// the link provides (SignBlob/VerifyBlob) and at least one honest
		// relay besides the sender to be meaningful.
		if n < 2 {
			return fmt.Errorf("%w: dolev-strong needs N >= 2, got N=%d", ErrConsensusConfig, n)
		}
		if maxFaults >= n {
			return fmt.Errorf("%w: dolev-strong needs b < N, got b=%d N=%d", ErrConsensusConfig, maxFaults, n)
		}
	case PBFT:
		if n < 3*maxFaults+1 {
			return fmt.Errorf("%w: pbft needs N >= 3b+1, got N=%d b=%d (need N >= %d)",
				ErrConsensusConfig, n, maxFaults, 3*maxFaults+1)
		}
	default:
		return fmt.Errorf("%w: unknown consensus kind %d", ErrConsensusConfig, int(kind))
	}
	return nil
}

// newInstance builds one node's consensus instance over t, the simulated
// network (consensus.NetTransport) or a transport.Link, and returns it with
// its tick budget. The slot is the workload round, so instances never
// alias across batches. Dolev-Strong runs Rounds(b)+1 ticks from the
// caller's sender; PBFT starts in the caller's view (nextView) and runs at
// most maxTicksPerRound ticks.
func newInstance(kind ConsensusKind, t consensus.Transport, sender transport.NodeID, view, round, b int, value []byte) (consensus.Node, int, error) {
	switch kind {
	case DolevStrong:
		nd, err := dolevstrong.New(dolevstrong.Config{Transport: t, Sender: sender, Slot: uint64(round), MaxFaults: b, Value: value})
		if err != nil {
			return nil, 0, err
		}
		return nd, dolevstrong.Rounds(b) + 1, nil
	case PBFT:
		nd, err := pbft.New(pbft.Config{Transport: t, Slot: uint64(round), MaxFaults: b, Value: value, StartView: view})
		if err != nil {
			return nil, 0, err
		}
		return nd, maxTicksPerRound, nil
	}
	return nil, 0, fmt.Errorf("%w: no consensus instance for %v", ErrConsensusConfig, kind)
}

// nextView is the view the next PBFT instance starts in: the one nd
// decided in. Every honest node agrees on it, so a dead or faulty
// low-view leader costs one view change per run, not one per instance.
// A protocol without views leaves view as it is.
func nextView(nd consensus.Node, view int) int {
	if v, ok := nd.(*pbft.Node); ok {
		return v.View()
	}
	return view
}

// preparer is a consensus node that names the value it has prepared
// before deciding it (pbft.Node).
type preparer interface {
	Prepared() ([]byte, bool)
}

// speculation is what a node holds of a batch's step 0 when its
// consensus instance decides: the peers' result broadcasts that arrived
// during the instance, and possibly its own result on a prepared batch.
type speculation[E comparable] struct {
	// early holds, per sender, the last result broadcast received during
	// the instance, whatever batch it is tagged with; executeSteps counts
	// those tagged with the decided batch.
	early []transport.Message
	// tag is the SHA-256 of the prepared payload result was computed on;
	// result is nil until the node speculated.
	tag    [32]byte
	result []E
}

// collect is the consensus tick hook (consensus.DriveLink): it keeps the
// tick's result broadcasts, then — the first time pr (nil: a protocol
// that cannot tell) has prepared a payload that parses as a steps-round
// batch for this node's round — encodes that batch's commands, applies
// step 0 and broadcasts the result tagged with the payload's SHA-256, in
// the tick the node sends its commit.
func (p *NodeProcess[E]) collect(spec *speculation[E], pr preparer, steps int, inbox []transport.Message) error {
	for _, m := range inbox {
		if m.Kind == resultKind && m.From >= 0 && int(m.From) < p.n {
			spec.early[m.From] = m
		}
	}
	if spec.result != nil || pr == nil {
		return nil
	}
	value, ok := pr.Prepared()
	if !ok {
		return nil
	}
	batch, round, ok := parseBatchMsg(p.cfg.BaseField, value, steps, p.cfg.K, p.tr.CmdLen())
	if !ok || round != p.round {
		return nil
	}
	p.core.encodeCommands(flattenBatch(batch, p.tr.CmdLen()))
	result, err := p.core.apply(0)
	if err != nil {
		return err
	}
	// The speculation is held past this apply, so it keeps a copy of the
	// core's apply buffer.
	spec.tag, spec.result = sha256.Sum256(value), slices.Clone(result)
	return p.link.Broadcast(resultKind, p.core.resultPayload(p.round, spec.tag, result))
}

// decideBatch runs one consensus instance over the link, collecting
// step 0 into spec as it goes, and returns the decided payload bytes. The
// Dolev-Strong sender rotates over instances, as Cluster.leaderFor does:
// every batch but the workload's last holds batchSize rounds, so the
// instance is round / batchSize, which a restarted process derives from
// its durable round alone.
func (p *NodeProcess[E]) decideBatch(proposal []byte, steps, batchSize int, spec *speculation[E]) ([]byte, error) {
	sender := transport.NodeID(p.round / batchSize % p.n)
	nd, maxTicks, err := newInstance(p.cfg.Consensus, p.link, sender, p.startView, p.round, p.cfg.MaxFaults, proposal)
	if err != nil {
		return nil, err
	}
	pr, _ := nd.(preparer)
	decided, err := consensus.DriveLink(p.link, nd, maxTicks, func(inbox []transport.Message) error {
		return p.collect(spec, pr, steps, inbox)
	})
	if err != nil {
		return nil, err
	}
	p.startView = nextView(nd, p.startView)
	return decided, nil
}

// RunWorkload drives a whole workload under a real consensus protocol.
// There is no sequencer: every node of the cluster calls RunWorkload
// with the same rounds (derived from the shared seed) and the same
// batchSize (<= 1 means one round per batch), proposes each batch as
// identical payload bytes, decides it with the configured protocol, and
// executes the decided batch through the shared coded execution core.
// It returns the decoded outputs, one [K][]E per round, bit-identical
// to the simulated Oracle cluster on the same workload.
func (p *NodeProcess[E]) RunWorkload(rounds [][][]E, batchSize int) ([][][]E, error) {
	if p.cfg.Consensus == Oracle {
		return nil, fmt.Errorf("%w: RunWorkload needs a BFT protocol; Oracle clusters use Lead/Follow", ErrConsensusConfig)
	}
	batchSize = max(batchSize, 1)
	return runBatches(rounds, batchSize, func(batch [][][]E) ([][][]E, error) {
		return p.runConsensusBatch(batch, batchSize)
	})
}

// runConsensusBatch decides and executes one batch of a workload run in
// batches of batchSize: propose the canonical payload, run the consensus
// instance, parse and validate the decided bytes, commit them.
func (p *NodeProcess[E]) runConsensusBatch(batch [][][]E, batchSize int) ([][][]E, error) {
	proposal, err := p.encodeBatchProposal(batch)
	if err != nil {
		return nil, err
	}
	spec := &speculation[E]{early: make([]transport.Message, p.n)}
	decided, err := p.decideBatch(proposal, len(batch), batchSize, spec)
	if err != nil {
		return nil, fmt.Errorf("csm: node %d round %d: %v consensus: %w", p.self, p.round, p.cfg.Consensus, err)
	}
	agreed, round, ok := parseBatchMsg(p.cfg.BaseField, decided, len(batch), p.cfg.K, p.tr.CmdLen())
	if !ok {
		// Unlike the simulated cluster (which skips a garbage batch, and
		// whose ingress client retries it under a rotated leader), the
		// multi-process driver has no retry queue yet; surface the
		// decision instead of silently diverging from the workload.
		return nil, fmt.Errorf("csm: node %d round %d: %v decided an unusable batch (%d bytes)",
			p.self, p.round, p.cfg.Consensus, len(decided))
	}
	return p.commitBatch(round, agreed, sha256.Sum256(decided), spec)
}
