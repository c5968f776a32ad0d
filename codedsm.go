// Package codedsm is a Go implementation of the Coded State Machine (CSM)
// from "Coded State Machine — Scaling State Machine Execution under
// Byzantine Faults" (Li, Sahraei, Yu, Avestimehr, Kannan, Viswanath,
// PODC 2019 / arXiv:1906.10817).
//
// CSM runs K independent state machines with a polynomial transition
// function on N untrusted nodes so that security β, storage efficiency γ,
// and throughput λ all scale linearly in N — where classic replication must
// trade them off. Each node stores one Lagrange-coded state, executes the
// transition directly on coded data, and Reed-Solomon decoding of the N
// results corrects everything up to b Byzantine nodes.
//
// The package re-exports the library's layers:
//
//   - fields:      NewGoldilocks (GF(2^64-2^32+1), NTT-friendly) and
//     NewGF2m (GF(2^m), for Boolean machines per Appendix A);
//   - machines:    NewBank, NewPolynomialRegister, NewBooleanMachine,
//     FromExprs;
//   - the engine:  Open runs consensus + coded execution on a
//     deterministic simulated network with Byzantine fault injection, and
//     Cluster.Open serves it through Submit;
//   - baselines:   OpenPartialReplication and the random-allocation
//     experiment for the Table 1 / Section 7 comparisons;
//   - INTERMIX:    verifiable matrix-vector multiplication (Section 6.1);
//   - delegation:  centralized verifiable coding (Section 6.2, WithDelegated);
//   - sharding:    OpenRouter serves many clusters behind one Submit;
//   - experiments: RepairCost (Section 7, Remark 5); the paper's tables
//     and figures are measured in RESULTS.md, which TestPaperArtifacts
//     regenerates.
//
// Quickstart: see Example in example_test.go.
package codedsm

import (
	"codedsm/internal/csm"
	"codedsm/internal/field"
	"codedsm/internal/intermix"
	"codedsm/internal/lcc"
	"codedsm/internal/metrics"
	"codedsm/internal/replication"
	"codedsm/internal/shard"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// ---- Fields ----

// Field is the finite-field abstraction all coding is generic over.
type Field[E comparable] = field.Field[E]

// Goldilocks is GF(p), p = 2^64 - 2^32 + 1.
type Goldilocks = field.Goldilocks

// GF2m is the binary extension field GF(2^m).
type GF2m = field.GF2m

// NewGoldilocks returns the default prime field.
func NewGoldilocks() Goldilocks { return field.NewGoldilocks() }

// NewGF2m returns GF(2^m) for 2 <= m <= 16 (Appendix A requires 2^m >= N:
// the systematic machine points are the first K node points).
func NewGF2m(m uint) (*GF2m, error) { return field.NewGF2m(m) }

// ---- State machines ----

// Transition is a polynomial state transition function.
type Transition[E comparable] = sm.Transition[E]

// Machine is an uncoded reference state machine.
type Machine[E comparable] = sm.Machine[E]

// BoolFunc is a Boolean transition for NewBooleanMachine.
type BoolFunc = sm.BoolFunc

// NewBank returns the paper's bank-balance machine (degree 1).
func NewBank[E comparable](f Field[E]) (*Transition[E], error) { return sm.NewBank(f) }

// NewPolynomialRegister returns a machine of exact degree d.
func NewPolynomialRegister[E comparable](f Field[E], d int) (*Transition[E], error) {
	return sm.NewPolynomialRegister(f, d)
}

// FromExprs builds a transition from polynomial expressions, e.g.
// FromExprs(f, "mymachine", []string{"s"}, []string{"x"},
// []string{"s + x^2"}, []string{"s*x"}).
func FromExprs[E comparable](f Field[E], name string, stateVars, cmdVars, nextExprs, outExprs []string) (*Transition[E], error) {
	return sm.FromExprs(f, name, stateVars, cmdVars, nextExprs, outExprs)
}

// NewBooleanMachine converts an arbitrary Boolean transition function into
// a polynomial machine over GF(2^m) (Appendix A).
func NewBooleanMachine(f Field[uint64], name string, stateBits, cmdBits, outBits int, fn BoolFunc) (*Transition[uint64], error) {
	return sm.NewBoolean(f, name, stateBits, cmdBits, outBits, fn)
}

// PackBits embeds bits into GF(2^m) coordinates (equation (13)).
func PackBits(f *GF2m, v uint64, width int) []uint64 { return sm.PackBits(f, v, width) }

// UnpackBits inverts PackBits.
func UnpackBits(f *GF2m, vec []uint64) (uint64, error) { return sm.UnpackBits(f, vec) }

// NewMachine creates an uncoded reference machine.
func NewMachine[E comparable](tr *Transition[E], initial []E) (*Machine[E], error) {
	return sm.NewMachine(tr, initial)
}

// ---- The CSM engine ----

// Cluster is a running CSM deployment.
type Cluster[E comparable] = csm.Cluster[E]

// RoundResult reports one executed round.
type RoundResult[E comparable] = csm.RoundResult[E]

// Behavior selects a Byzantine node's misbehaviour.
type Behavior = csm.Behavior

// Byzantine behaviours.
const (
	Honest      = csm.Honest
	WrongResult = csm.WrongResult
	SilentNode  = csm.Silent
	Equivocate  = csm.Equivocate
	BadLeader   = csm.BadLeader
)

// ---- Membership and churn ----

// ChurnEvent is one scheduled membership or adversary change
// (WithChurn / WithChurnFn), applied at the boundary
// of the consensus instance covering its round.
type ChurnEvent = csm.ChurnEvent

// Churn operations.
const (
	ChurnCrash   = csm.ChurnCrash
	ChurnRejoin  = csm.ChurnRejoin
	ChurnCorrupt = csm.ChurnCorrupt
	ChurnRelease = csm.ChurnRelease
)

// MovingAdversary returns a ChurnFn implementing the paper's Section 7
// dynamic adversary: every epochLen rounds the b corruptions release and
// re-target deterministically per seed.
func MovingAdversary(n, b, epochLen int, behavior Behavior, seed uint64) (func(round int) []ChurnEvent, error) {
	return csm.MovingAdversary(n, b, epochLen, behavior, seed)
}

// ConsensusKind selects the consensus-phase protocol.
type ConsensusKind = csm.ConsensusKind

// Consensus protocols.
const (
	OracleConsensus = csm.Oracle
	DolevStrong     = csm.DolevStrong
	PBFT            = csm.PBFT
)

// Timing models.
const (
	Synchronous          = transport.Sync
	PartiallySynchronous = transport.PartialSync
)

// ---- Functional options (the serving-oriented constructor) ----

// Option configures a cluster built with Open; options validate eagerly.
type Option = csm.Option

// Open builds a CSM cluster from functional options:
//
//	cluster, err := codedsm.Open(gold, codedsm.NewBank[uint64],
//		codedsm.WithNodes(64), codedsm.WithMachines(22), codedsm.WithFaults(21),
//		codedsm.WithConsensus(codedsm.PBFT), codedsm.WithPartialSync(0),
//		codedsm.WithBatching(8), codedsm.WithPipeline(2))
//
// When WithMachines is omitted, K defaults to the full Table 2 capacity of
// the configured N, fault budget, transition degree, and network mode.
func Open[E comparable](f Field[E], newTransition csm.TransitionFactory[E], opts ...Option) (*Cluster[E], error) {
	return csm.Open(f, newTransition, opts...)
}

// WithNodes sets the network size N (required).
func WithNodes(n int) Option { return csm.WithNodes(n) }

// WithMachines sets the number of state machines K (default: capacity).
func WithMachines(k int) Option { return csm.WithMachines(k) }

// WithFaults sets the fault budget b the cluster is sized for.
func WithFaults(b int) Option { return csm.WithFaults(b) }

// WithConsensus selects the consensus-phase protocol.
func WithConsensus(kind ConsensusKind) Option { return csm.WithConsensus(kind) }

// WithPartialSync switches to the partially synchronous timing model with
// the given global stabilization round.
func WithPartialSync(gst int) Option { return csm.WithPartialSync(gst) }

// WithByzantine assigns misbehaviours to nodes (merged; the map is copied).
func WithByzantine(behaviors map[int]Behavior) Option { return csm.WithByzantine(behaviors) }

// WithByzantineNode assigns one node's misbehaviour.
func WithByzantineNode(node int, behavior Behavior) Option {
	return csm.WithByzantineNode(node, behavior)
}

// WithDelegated enables the Section 6.2 delegated execution phase
// (implies a broadcast network, on which nobody can equivocate).
func WithDelegated() Option { return csm.WithDelegated() }

// WithSeed seeds all cluster and network randomness.
func WithSeed(seed uint64) Option { return csm.WithSeed(seed) }

// WithBatching groups consecutive workload rounds under one consensus
// instance (command batching).
func WithBatching(rounds int) Option { return csm.WithBatching(rounds) }

// WithPipeline enables the pipelined engine at the given depth.
func WithPipeline(depth int) Option { return csm.WithPipeline(depth) }

// WithChurn appends scheduled membership and adversary changes.
func WithChurn(events ...ChurnEvent) Option { return csm.WithChurn(events...) }

// WithChurnFn installs a dynamic churn generator (see MovingAdversary).
func WithChurnFn(fn func(round int) []ChurnEvent) Option { return csm.WithChurnFn(fn) }

// WithInitialStates sets the K machines' initial state vectors.
func WithInitialStates[E comparable](states [][]E) Option { return csm.WithInitialStates(states) }

// ---- Ingress (Submit-based serving) ----

// Client is the submission front of an open cluster: Submit enqueues one
// command for one machine and returns a Future, while the client's
// scheduler coalesces pending submissions into rounds and consensus
// batches and drives the engines underneath (Cluster.Open).
type Client[E comparable] = csm.Client[E]

// Future is the pending result of one submitted command.
type Future[E comparable] = csm.Future[E]

// ClientOption configures Cluster.Open.
type ClientOption = csm.ClientOption

// WithSubmitQueueDepth bounds each machine's pending-submission queue
// (Submit blocks while the addressed machine's queue is full).
func WithSubmitQueueDepth(depth int) ClientOption { return csm.WithSubmitQueueDepth(depth) }

// WithDeterministicAdmission admits a round only when every machine has a
// pending command and a batch only when full, making a seeded
// Submit-driven run bit-identical to Run on the equivalent workload.
func WithDeterministicAdmission() ClientOption { return csm.WithDeterministicAdmission() }

// ---- Typed errors ----

// BatchError is attached to every mid-workload failure of Run: it
// carries the completed prefix of round reports and the failed round's
// index (errors.As).
type BatchError[E comparable] = csm.BatchError[E]

// Sentinel errors (errors.Is).
var (
	// ErrRoundStuck: a round did not complete within the tick budget.
	ErrRoundStuck = csm.ErrRoundStuck
	// ErrRoundLimit: a round's consensus retry budget was exhausted.
	ErrRoundLimit = csm.ErrRoundLimit
	// ErrFaultBudgetExceeded: a fault pattern overruns the 2b parity budget.
	ErrFaultBudgetExceeded = csm.ErrFaultBudgetExceeded
	// ErrQuorumUnreachable: a fault pattern starves a quorum threshold, or
	// a machine output never gathered b+1 matching replies.
	ErrQuorumUnreachable = csm.ErrQuorumUnreachable
	// ErrClientClosed: Submit on a closed (or failed) ingress client.
	ErrClientClosed = csm.ErrClientClosed
)

// RandomWorkload generates a reproducible workload.
func RandomWorkload[E comparable](f Field[E], rounds, k, cmdLen int, seed uint64) [][][]E {
	return csm.RandomWorkload(f, rounds, k, cmdLen, seed)
}

// ---- Capacity planning (Table 2 bounds) ----

// SyncMaxMachines returns the largest K for N nodes, b faults, degree d in
// a synchronous network.
func SyncMaxMachines(n, b, d int) int { return lcc.SyncMaxMachines(n, b, d) }

// PSyncMaxMachines is the partially synchronous bound.
func PSyncMaxMachines(n, b, d int) int { return lcc.PSyncMaxMachines(n, b, d) }

// SyncMaxFaults returns the largest b tolerated for fixed N, K, d.
func SyncMaxFaults(n, k, d int) int { return lcc.SyncMaxFaults(n, k, d) }

// ---- Replication baselines ----

// PartialReplication is the β=Θ(N/K) baseline.
type PartialReplication[E comparable] = replication.PartialCluster[E]

// ReplicationOption configures a baseline cluster built with
// OpenPartialReplication. The constructors mirror the cluster options
// under a WithRepl prefix.
type ReplicationOption = replication.Option

// ReplicationBehavior selects a baseline node's failure mode (colluding,
// crashed, or honest by default).
type ReplicationBehavior = replication.Behavior

// WithReplNodes sets the baseline network size N (required).
func WithReplNodes(n int) ReplicationOption { return replication.WithNodes(n) }

// WithReplMachines sets the baseline machine count K (required).
func WithReplMachines(k int) ReplicationOption { return replication.WithMachines(k) }

// WithReplByzantine assigns failure modes to baseline nodes.
func WithReplByzantine(behaviors map[int]ReplicationBehavior) ReplicationOption {
	return replication.WithByzantine(behaviors)
}

// WithReplSeed seeds the baseline adversary's lies.
func WithReplSeed(seed uint64) ReplicationOption { return replication.WithSeed(seed) }

// OpenPartialReplication builds the partial-replication baseline from
// functional options.
func OpenPartialReplication[E comparable](f Field[E], newTransition replication.TransitionFactory[E], opts ...ReplicationOption) (*PartialReplication[E], error) {
	return replication.OpenPartial(f, newTransition, opts...)
}

// ConcentratedAttack corrupts a majority of one partial-replication group.
func ConcentratedAttack(n, k, target int) (map[int]replication.Behavior, error) {
	return replication.ConcentratedAttack(n, k, target)
}

// RandomAllocationExperiment models Section 7's random-allocation scheme
// under static and dynamic adversaries.
type RandomAllocationExperiment = replication.RandomAllocationExperiment

// Adversary kinds for RandomAllocationExperiment.
const (
	StaticAdversary  = replication.StaticAdversary
	DynamicAdversary = replication.DynamicAdversary
)

// ---- INTERMIX ----

// IntermixStrategy selects worker behaviour.
type IntermixStrategy = intermix.Strategy

// Worker strategies.
const (
	HonestWorker   = intermix.HonestWorker
	NaiveLiar      = intermix.NaiveLiar
	ConsistentLiar = intermix.ConsistentLiar
)

// IntermixSession configures a full INTERMIX round.
type IntermixSession[E comparable] = intermix.SessionConfig[E]

// IntermixOutcome reports a session.
type IntermixOutcome[E comparable] = intermix.Outcome[E]

// RunIntermix executes delegation + election + audits + verification.
func RunIntermix[E comparable](cfg IntermixSession[E]) (*IntermixOutcome[E], error) {
	return intermix.RunSession(cfg)
}

// CommitteeSize returns J = ceil(log ε / log µ).
func CommitteeSize(epsilon, mu float64) (int, error) { return intermix.CommitteeSize(epsilon, mu) }

// ---- Experiments ----

// RepairRow is one measured point of the repair-cost experiment
// (Section 7, Remark 5).
type RepairRow = metrics.RepairRow

// RepairCost measures what re-provisioning a crashed node costs, per
// network size, against the round cost and the naive re-download
// baseline.
func RepairCost(ns []int, mu float64, d, rounds int, seed uint64) ([]RepairRow, error) {
	return metrics.RepairCost(ns, mu, d, rounds, seed)
}

// RenderRepair renders the repair-cost series as text.
func RenderRepair(rows []RepairRow) string { return metrics.RenderRepair(rows) }

// ---- Sharded serving (the consistent-hash shard router) ----

// Router serves a fleet of independent CSM clusters behind one
// Submit/Future/Results surface: machines are addressed by global index
// and assigned to shards by a consistent-hash ring; cross-shard command
// sets run a two-phase prepare/commit protocol; Rebalance migrates a
// machine between shards through the coded-state handoff.
type Router[E comparable] = shard.Router[E]

// RouterOption configures OpenRouter.
type RouterOption = shard.Option

// CrossOp is one machine's command inside a cross-shard command set
// (Router.SubmitCross).
type CrossOp[E comparable] = shard.Op[E]

// Router sentinel errors (errors.Is).
var (
	// ErrRouterClosed: an operation on a closed router.
	ErrRouterClosed = shard.ErrRouterClosed
	// ErrCrossShardAborted: a two-phase cross-shard command aborted.
	ErrCrossShardAborted = shard.ErrAborted
)

// OpenRouter builds the ring, opens one CSM cluster per shard via the
// functional options, scatters the initial states, and starts serving:
//
//	router, err := codedsm.OpenRouter(gold, codedsm.NewBank[uint64],
//		codedsm.WithShards(3), codedsm.WithShardMachines(9),
//		codedsm.WithShardSeed(7),
//		codedsm.WithShardClusterOptions(
//			codedsm.WithNodes(12), codedsm.WithFaults(1)))
func OpenRouter[E comparable](f Field[E], newTransition csm.TransitionFactory[E], opts ...RouterOption) (*Router[E], error) {
	return shard.Open(f, newTransition, opts...)
}

// WithShards sets the shard count S (required).
func WithShards(s int) RouterOption { return shard.WithShards(s) }

// WithShardMachines sets the global machine count (required).
func WithShardMachines(m int) RouterOption { return shard.WithMachines(m) }

// WithShardSeed seeds ring placement, per-shard cluster seeds, and
// coordinator election.
func WithShardSeed(seed uint64) RouterOption { return shard.WithSeed(seed) }

// WithShardClusterOptions appends cluster options applied to every shard.
func WithShardClusterOptions(opts ...Option) RouterOption {
	return shard.WithClusterOptions(opts...)
}

// DigestShardState returns the hex SHA-256 digest of a state vector
// under the field's canonical uint64 representation — the cross-cluster
// comparison format Router.StateDigests uses.
func DigestShardState[E comparable](f Field[E], state []E) string {
	return shard.DigestState(f, state)
}

// DecodeMachineState reconstructs machine k's state from a cluster's
// coded shares (the coded read half of the rebalance handoff; also the
// oracle-comparison path for a closed cluster).
func DecodeMachineState[E comparable](c *Cluster[E], k int) ([]E, error) {
	return c.DecodeMachineState(k)
}
