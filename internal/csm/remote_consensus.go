// Pluggable batch consensus for the multi-process engine.
//
// The Oracle engine (remote.go) splits the cluster into one sequencer
// and N-1 followers: the batch IS whatever node 0 broadcasts. The
// consensus modes below remove that asymmetry. Every node derives the
// same seeded workload, serializes each batch into the identical
// canonical payload (encodeBatchMsg, the bytes the simulated consensus
// phase proposes), and runs a real BFT instance over its transport.Link
// to decide it — Dolev-Strong under synchrony, PBFT under partial
// synchrony. The decided payload, not the local proposal, is what gets
// parsed and executed, so a node that somehow proposed stale bytes
// still executes the agreed batch.
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
	"fmt"

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

// decideBatch runs one consensus instance over the link and returns the
// decided payload bytes. The slot is the workload round, so instances
// never alias across batches; the Dolev-Strong sender rotates with the
// round, and PBFT instances start in the view the previous instance
// decided in — all survivors agree on it, so a dead low-view leader
// costs one view change for the whole run, not one per batch.
func (p *NodeProcess[E]) decideBatch(proposal []byte) ([]byte, error) {
	switch p.cfg.Consensus {
	case DolevStrong:
		nd, err := dolevstrong.New(dolevstrong.Config{
			Transport: p.link,
			Sender:    transport.NodeID(p.round % p.n),
			Slot:      uint64(p.round),
			MaxFaults: p.cfg.MaxFaults,
			Value:     proposal,
			Default:   nil,
		})
		if err != nil {
			return nil, err
		}
		return consensus.RunLink(p.link, nd, dolevstrong.Rounds(p.cfg.MaxFaults)+1)
	case PBFT:
		nd, err := pbft.New(pbft.Config{
			Transport: p.link,
			Slot:      uint64(p.round),
			MaxFaults: p.cfg.MaxFaults,
			Value:     proposal,
			StartView: p.startView,
		})
		if err != nil {
			return nil, err
		}
		decided, err := consensus.RunLink(p.link, nd, p.cfg.MaxTicksPerRound)
		if err != nil {
			return nil, err
		}
		p.startView = nd.View()
		return decided, nil
	default:
		return nil, fmt.Errorf("%w: decideBatch under %v", ErrConsensusConfig, p.cfg.Consensus)
	}
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
	return runBatches(rounds, batchSize, p.runConsensusBatch)
}

// runConsensusBatch decides and executes one batch: propose the
// canonical payload, run the consensus instance, parse and validate the
// decided bytes, commit them.
func (p *NodeProcess[E]) runConsensusBatch(batch [][][]E) ([][][]E, error) {
	proposal, err := p.encodeBatchProposal(batch)
	if err != nil {
		return nil, err
	}
	decided, err := p.decideBatch(proposal)
	if err != nil {
		return nil, fmt.Errorf("csm: node %d round %d: %v consensus: %w", p.self, p.round, p.cfg.Consensus, err)
	}
	agreed, round, ok := parseBatchMsg(p.cfg.BaseField, decided, len(batch), p.cfg.K, p.tr.CmdLen())
	if !ok {
		// Unlike the simulated cluster (which skips a garbage batch and
		// retries under a rotated leader), the multi-process driver has no
		// retry queue yet; surface the decision instead of silently
		// diverging from the workload.
		return nil, fmt.Errorf("csm: node %d round %d: %v decided an unusable batch (%d bytes)",
			p.self, p.round, p.cfg.Consensus, len(decided))
	}
	return p.commitBatch(round, agreed)
}
