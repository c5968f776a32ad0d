// Package csm implements the Coded State Machine engine — the paper's core
// contribution (Sections 2, 5). A cluster of N nodes operates K independent
// state machines with the same polynomial transition function f of degree d:
//
//   - every node i stores one Lagrange-coded state S̃_i (storage efficiency
//     γ = K, Theorem 1);
//   - each round, the nodes agree on K input commands (consensus phase:
//     Dolev-Strong in synchronous networks, PBFT in partially synchronous
//     ones, or a trusted-sequencer oracle when the experiment isolates the
//     execution phase, as the paper's throughput metric does);
//   - each node encodes the commands (X̃_i), computes g_i = f(S̃_i, X̃_i) and
//     broadcasts it (execution phase);
//   - each node Reed-Solomon-decodes the N results — at most b of which are
//     corrupted by Byzantine nodes — recovers every machine's output and
//     next state, replies to the clients, and re-encodes its coded state.
//
// The engine runs on the deterministic lock-step network of package
// transport and measures throughput exactly as the paper defines it:
// commands per field operation per node (Section 2.2).
//
// # Batching and pipelining
//
// Two throughput knobs compose with the per-round fan-out (parallel.go),
// which GOMAXPROCS sizes:
//
//   - Config.BatchSize B groups B consecutive workload rounds under one
//     consensus instance. The agreed B*K commands are Lagrange-encoded in
//     a single flat-row bulk pass per node, and the B micro-steps then run
//     the coded execution back to back. Every step's decode — batched
//     or not — first runs the verified-subset check (lcc.Primed) on dim
//     rows chosen clear of the nodes this node has caught lying before
//     (suspicion is sticky across steps and batches), so interpolation
//     and the error-locator solve run only on the step a liar first
//     shows up. For every decided batch, outputs, detected faults and
//     decoded states are identical to unbatched execution; only tick
//     accounting (one consensus per batch) differs. The
//     consensus granularity itself necessarily changes: rotating-leader
//     protocols elect one leader per instance (rotating over instances,
//     so every node still leads eventually) and a corrupted proposal
//     skips the whole batch rather than a single round.
//
//   - Config.Pipeline overlaps rounds in Run: a background
//     client stage performs the oracle advance, client tally, and audit of
//     a decided round while the driving goroutine already runs the
//     consensus and execution phases of the following rounds.
//
// The pipelined engine's happens-before contract: within a round, every
// node's next-state re-encode (the tail of its decode) completes on the
// driving goroutine before the next round's compute phase reads any coded
// state, so overlapped rounds never observe a half-updated S̃_i. The
// client stage receives only immutable per-round snapshots — the decoded
// outputs/states (freshly allocated by each decode), the agreed commands,
// and client replies pre-drawn on the driving goroutine in protocol
// order — and it alone touches the oracle machines between Run start and
// return. All cluster and network randomness is consumed on the driving
// goroutine in the same order as sequential execution, which is what makes
// pipelined runs bit-identical (RoundResult for RoundResult) to
// sequential ones. The delegated execution phase (delegated.go) keeps the
// same contract: the honest nodes adopt their refreshed coded states on
// the driving goroutine before the step returns its snapshot.
package csm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"

	"codedsm/internal/consensus"
	"codedsm/internal/field"
	"codedsm/internal/ints"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// Behavior selects how a Byzantine node misbehaves in the execution phase.
type Behavior int

const (
	// Honest follows the protocol.
	Honest Behavior = iota
	// WrongResult broadcasts a random wrong computation result g_i.
	WrongResult
	// Silent sends nothing in the execution phase.
	Silent
	// Equivocate sends a different wrong result to every recipient
	// (requires a point-to-point network; a broadcast network coerces the
	// payloads, which is exactly the paper's no-equivocation assumption).
	Equivocate
	// BadLeader proposes a garbage batch when leading consensus and also
	// broadcasts wrong results.
	BadLeader
	// Crashed is a fail-stopped node: it sends and receives nothing (the
	// transport drops its traffic in both directions), its coded state is
	// lost, and it participates in neither consensus nor execution until it
	// is repaired. Unlike active misbehaviour, a crash is an *erasure* in
	// the Reed-Solomon sense: every decoder knows the coordinate is absent,
	// so it consumes one parity symbol of the fault budget where an error
	// consumes two (Table 2; see the fault-budget rules on Config).
	Crashed
	// Recovering marks a node between rejoining the network and completing
	// its coded-state repair: it is reachable again but holds no valid
	// share yet, so it behaves as an erasure like Crashed. Rejoin installs
	// it transiently; a node is left in this state only when a repair
	// attempt failed (it stays out of consensus and execution until a
	// retried Rejoin succeeds). It is not accepted in Config.Byzantine.
	Recovering
)

// String implements fmt.Stringer.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case WrongResult:
		return "wrong-result"
	case Silent:
		return "silent"
	case Equivocate:
		return "equivocate"
	case BadLeader:
		return "bad-leader"
	case Crashed:
		return "crashed"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("Behavior(%d)", int(b))
	}
}

// ConsensusKind selects the consensus-phase protocol.
type ConsensusKind int

const (
	// Oracle is a trusted sequencer: all nodes receive the batch directly.
	// Used when measuring the execution phase alone (the paper's throughput
	// definition explicitly excludes consensus cost, Section 2.2).
	Oracle ConsensusKind = iota
	// DolevStrong runs authenticated broadcast (synchronous networks).
	DolevStrong
	// PBFT runs Practical BFT (partially synchronous networks).
	PBFT
)

// String implements fmt.Stringer.
func (c ConsensusKind) String() string {
	switch c {
	case Oracle:
		return "oracle"
	case DolevStrong:
		return "dolev-strong"
	case PBFT:
		return "pbft"
	default:
		return fmt.Sprintf("ConsensusKind(%d)", int(c))
	}
}

// TransitionFactory builds the same logical transition function over a
// given field instance. The engine needs two instances: one over a counting
// field (the cluster under measurement) and one over the plain field (the
// uncoded reference oracle).
type TransitionFactory[E comparable] func(field.Field[E]) (*sm.Transition[E], error)

// Config configures a CSM cluster.
type Config[E comparable] struct {
	// BaseField is the arithmetic field (Goldilocks or GF(2^m)).
	BaseField field.Field[E]
	// NewTransition builds the state transition function.
	NewTransition TransitionFactory[E]
	// K is the number of state machines; N the number of nodes.
	K, N int
	// MaxFaults is the engineering fault budget b the cluster is sized
	// for; it determines the partially synchronous wait threshold N-b.
	MaxFaults int
	// Mode selects the network timing model.
	Mode transport.Mode
	// GST is the stabilization round for PartialSync.
	GST int
	// Consensus selects the consensus-phase protocol.
	Consensus ConsensusKind
	// Byzantine maps node index to misbehaviour.
	Byzantine map[int]Behavior
	// Delegated enables the Section 6.2 execution phase: a rotating worker
	// performs all coding, verified by a random auditor committee; fraud,
	// or a worker that sends nothing, aborts the attempt and the next
	// worker retries. It requires Mode == Sync and runs on a broadcast
	// network, the Section 6 no-equivocation assumption; without it the
	// network is point-to-point. It excludes Churn and Crashed entries in
	// Byzantine (a node crashed at run time is tolerated).
	Delegated bool
	// InitialStates holds K state vectors; nil means all-zero states.
	InitialStates [][]E
	// Seed drives all randomness.
	Seed uint64
	// BatchSize is the number of consecutive workload rounds each
	// consensus instance decides (Run groups the workload accordingly). The B micro-steps share one amortized command encode;
	// see the package documentation.
	// 0 and 1 both mean one round per consensus instance; negative
	// values are rejected.
	BatchSize int
	// Pipeline enables the pipelined engine in Run and sets its depth: up
	// to Pipeline decided rounds may have their client/audit stage still
	// outstanding while the driving goroutine executes later rounds. 0
	// runs the sequential engine; negative values are rejected. Both
	// execution phases pipeline: a delegated step hands the client stage
	// the same immutable snapshot a decentralised one does.
	Pipeline int
	// Churn schedules membership and adversary changes: an event with
	// Round r is applied at the boundary of the consensus instance that
	// covers engine round r (Cluster.Round), before that instance runs
	// (with BatchSize B events land at instance boundaries — an instance
	// is the atomic unit of agreement, so membership cannot change inside
	// one). Engine rounds advance for skipped instances too, so under the
	// ingress client's retries events are keyed to protocol time, not
	// workload position: a crash scheduled for round r fires at round r
	// even if a Byzantine leader forced earlier rounds to be re-attempted.
	// Events are applied in schedule order for equal rounds. Every
	// application is checked against the fault-budget rules (see
	// ChurnEvent); a violating event fails the run. Incompatible with
	// Delegated.
	Churn []ChurnEvent
	// ChurnFn optionally generates churn events dynamically: it is called
	// once per workload round at the covering instance boundary and its
	// events are applied after the static Churn entries for that round.
	// It must be deterministic (a pure function of the round) or the
	// same-seed reproducibility contract is void. Incompatible with
	// Delegated. See MovingAdversary for the paper's Section 7 dynamic
	// adversary as a ChurnFn.
	ChurnFn func(round int) []ChurnEvent
}

// Cluster is a running CSM deployment.
type Cluster[E comparable] struct {
	cfg      Config[E]
	counting *field.Counting[E]
	bulk     field.Bulk[E] // counted bulk kernels: one capability check at build
	ring     *poly.Ring[E]
	code     *lcc.Code[E]
	tr       *sm.Transition[E] // over the counting field
	oracleTr *sm.Transition[E] // over the base field
	oracle   [][]E             // the uncoded ground truth; see oracleArgs
	net      *transport.Network
	nodes    []*node[E]
	rng      *rand.Rand
	round    int
	// instances counts consensus instances (= batches, skipped or not).
	// Leadership rotates over instances, not rounds: with BatchSize B the
	// round counter advances by B per instance, and rotating by round
	// would visit only every gcd(B,N)-th node — silently excluding
	// BadLeader adversaries from batched runs. For B=1 the two coincide.
	instances int
	// pbftView is the view the last PBFT instance decided in; the next
	// instance starts there (nextView).
	pbftView int
	// maxTicks bounds a step's lock-step ticks (maxTicksPerRound).
	maxTicks int
	// shared is the step's row table, one flat N x ResultLen allocation
	// viewed as sender-indexed rows: sender i's row holds the result it
	// sent this step once sharedSet[i] (see shareResult), and every node
	// that received that result reads it there in place. It is allocated
	// once, so its rows keep their addresses from step to step, and
	// broadcastResults voids it.
	shared    [][]E
	sharedSet []bool
	// tick is parseResults' table: one entry per envelope of the largest
	// tick so far, each with a scratch row, reused every tick.
	tick parsedTick[E]
	// Step scratch, reused from step to step: computeAllResults' result
	// table, runExecutionStep's pending nodes and collectAndDecode's
	// verdicts on the driving goroutine, clientPhase's tally on whichever
	// goroutine runs finishStep.
	results [][]E
	pending []*node[E]
	oks     []bool
	errs    []error
	tally   []replyCount[E]
	// outcomes is the FIFO free list of step outcomes (takeOutcome,
	// releaseOutcome). At most Pipeline+2 are out of it at once — the
	// stage's queue, the one it tallies and the one a step decodes into —
	// so New fills it with that many, and taking the oldest first warms
	// every one in the first Pipeline+2 steps: after that no step
	// allocates an outcome or a decode buffer, whatever the scheduling.
	outcomes chan *stepOutcome[E]
	// Machine k's oracle row holds its state followed by its last output;
	// finishStep advances it in place, with oracleArgs as the transition's
	// scratch, and tallied counts the advances.
	oracleArgs []E
	tallied    int
	// epoch counts membership epochs: it advances whenever a churn
	// boundary applies at least one event, so rounds between two
	// increments share one static fault pattern.
	epoch int
	// churnAt is the cursor into cfg.Churn (kept sorted by Round at
	// construction): events before it have been applied.
	churnAt int
	repairs RepairStats
	// clientMu guards clientOpen — the ingress flag: while a Client is
	// open its scheduler owns the cluster, so a second Open is refused
	// until Close (the only cluster state that concurrent goroutines may
	// legitimately contend on).
	clientMu   sync.Mutex
	clientOpen bool
}

// maxTicksPerRound bounds the lock-step ticks a node spends waiting on one
// round's results or recovery messages, and a PBFT instance's ticks.
const maxTicksPerRound = 200

// engine is what both engines build from their configuration the same
// way: the transition over the engine's field, the Lagrange code over a
// ring on that field, and the K initial states.
type engine[E comparable] struct {
	tr      *sm.Transition[E]
	ring    *poly.Ring[E]
	code    *lcc.Code[E]
	initial [][]E
}

// newEngine is the set-up New and NewNodeProcess share. It checks the fault
// budget and the consensus shape (ValidateRemoteConsensus), builds the
// transition over f, checks K against the Table 2 capacity of the network
// mode, builds the code, and checks the initial states (nil: all zero).
func newEngine[E comparable](f field.Field[E], newTransition TransitionFactory[E], kind ConsensusKind,
	mode transport.Mode, k, n, b int, initial [][]E) (engine[E], error) {
	var e engine[E]
	if b < 0 {
		return e, fmt.Errorf("csm: negative MaxFaults %d", b)
	}
	if err := ValidateRemoteConsensus(kind, n, b); err != nil {
		return e, err
	}
	tr, err := newTransition(f)
	if err != nil {
		return e, fmt.Errorf("csm: building transition: %w", err)
	}
	d := tr.Degree()
	if maxK := maxMachines(mode, n, b, d); k > maxK {
		return e, fmt.Errorf("csm: K=%d exceeds capacity %d for N=%d b=%d d=%d (%s)", k, maxK, n, b, d, mode)
	}
	ring := poly.NewRing[E](f)
	code, err := lcc.New(ring, k, n)
	if err != nil {
		return e, err
	}
	if initial == nil {
		initial = make([][]E, k)
		for i := range initial {
			initial[i] = field.ZeroVec(f, tr.StateLen())
		}
	}
	if len(initial) != k {
		return e, fmt.Errorf("csm: %d initial states for K=%d machines", len(initial), k)
	}
	for i, st := range initial {
		if len(st) != tr.StateLen() {
			return e, fmt.Errorf("csm: initial state %d has length %d, want %d", i, len(st), tr.StateLen())
		}
	}
	return engine[E]{tr: tr, ring: ring, code: code, initial: initial}, nil
}

// maxMachines is the Table 2 capacity: the most machines N nodes can run
// at degree d while decoding through b faults in the given network mode.
func maxMachines(mode transport.Mode, n, b, d int) int {
	if mode == transport.Sync {
		return lcc.SyncMaxMachines(n, b, d)
	}
	return lcc.PSyncMaxMachines(n, b, d)
}

// New builds and initializes a cluster, distributing coded initial states.
func New[E comparable](cfg Config[E]) (*Cluster[E], error) {
	if cfg.BaseField == nil || cfg.NewTransition == nil {
		return nil, errors.New("csm: BaseField and NewTransition are required")
	}
	counting := field.NewCounting(cfg.BaseField)
	eng, err := newEngine(counting, cfg.NewTransition, cfg.Consensus, cfg.Mode, cfg.K, cfg.N, cfg.MaxFaults, cfg.InitialStates)
	if err != nil {
		return nil, err
	}
	tr, code := eng.tr, eng.code
	// Only misbehaving entries count against the budget: a map entry whose
	// value is Honest is a (redundant) statement of the default, not a
	// fault. Keys must name real nodes — nodes are built for 0..N-1 only,
	// so an out-of-range key would otherwise be silently ignored.
	// Validation walks the entries in sorted key order so that when
	// several entries are invalid, every run rejects the same one —
	// raw map iteration would make the returned error nondeterministic.
	for _, i := range ints.SortedMapKeys(cfg.Byzantine) {
		beh := cfg.Byzantine[i]
		if i < 0 || i >= cfg.N {
			return nil, fmt.Errorf("csm: Byzantine node %d out of range [0,%d)", i, cfg.N)
		}
		if beh == Recovering {
			return nil, fmt.Errorf("csm: node %d: Recovering is a transient repair state, not a configurable behavior", i)
		}
		if beh == Crashed && cfg.Delegated {
			return nil, fmt.Errorf("csm: node %d: crashed nodes are not supported in delegated mode", i)
		}
	}
	if err := budgetCheck(cfg.N, cfg.MaxFaults, cfg.Mode, cfg.Consensus, cfg.Byzantine); err != nil {
		return nil, err // budgetCheck errors wrap the csm-prefixed sentinels
	}
	if cfg.Delegated && cfg.Mode != transport.Sync {
		return nil, errors.New("csm: delegated mode requires a synchronous broadcast network (Mode=Sync) — Section 6 assumption")
	}
	if cfg.Delegated && (len(cfg.Churn) > 0 || cfg.ChurnFn != nil) {
		return nil, errors.New("csm: churn is incompatible with delegated mode: the rotating worker re-reads the static fault pattern")
	}
	for _, ev := range cfg.Churn {
		if err := ev.validate(cfg.N); err != nil {
			return nil, fmt.Errorf("csm: churn schedule: %w", err)
		}
	}
	// The application cursor sweeps the schedule once; sort stably by
	// round on a copy so equal-round events keep their schedule order and
	// the caller's slice is left alone.
	if len(cfg.Churn) > 0 {
		cfg.Churn = append([]ChurnEvent(nil), cfg.Churn...)
		sort.SliceStable(cfg.Churn, func(i, j int) bool { return cfg.Churn[i].Round < cfg.Churn[j].Round })
	}
	if cfg.BatchSize < 0 {
		return nil, fmt.Errorf("csm: negative BatchSize %d", cfg.BatchSize)
	}
	if cfg.Pipeline < 0 {
		return nil, fmt.Errorf("csm: negative Pipeline depth %d", cfg.Pipeline)
	}
	oracleTr, err := cfg.NewTransition(cfg.BaseField)
	if err != nil {
		return nil, err
	}
	if cfg.Delegated {
		// The worker decodes every round on the shared result code: build
		// it, dense tables and all, as set-up rather than in round 0.
		if _, err := code.ResultCode(tr.Degree()); err != nil {
			return nil, err
		}
	}
	net, err := transport.New(transport.Config{
		N: cfg.N, Mode: cfg.Mode, GST: cfg.GST,
		NoEquivocation: cfg.Delegated, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	oracle := make([][]E, cfg.K)
	rl := oracleTr.ResultLen()
	flat := make([]E, cfg.K*rl)
	for k := range oracle {
		oracle[k] = flat[k*rl : (k+1)*rl : (k+1)*rl]
		copy(oracle[k], eng.initial[k])
	}
	codedStates, err := code.EncodeVectors(eng.initial)
	if err != nil {
		return nil, err
	}
	c := &Cluster[E]{
		cfg:      cfg,
		counting: counting,
		bulk:     eng.ring.Bulk(),
		ring:     eng.ring,
		code:     code,
		tr:       tr,
		oracleTr: oracleTr,
		oracle:   oracle,
		net:      net,
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0xc5a)),
		maxTicks: maxTicksPerRound,
	}
	c.oracleArgs = make([]E, oracleTr.StateLen()+oracleTr.CmdLen())
	c.outcomes = make(chan *stepOutcome[E], cfg.Pipeline+2)
	for range cap(c.outcomes) {
		c.outcomes <- new(stepOutcome[E])
	}
	c.shared, c.sharedSet = make([][]E, cfg.N), make([]bool, cfg.N)
	table, rl := make([]E, cfg.N*tr.ResultLen()), tr.ResultLen()
	for i := range c.shared {
		c.shared[i] = table[i*rl : (i+1)*rl : (i+1)*rl]
	}
	c.nodes = make([]*node[E], cfg.N)
	for i := 0; i < cfg.N; i++ {
		ep, err := net.Endpoint(transport.NodeID(i))
		if err != nil {
			return nil, err
		}
		c.nodes[i] = &node[E]{
			stepCore: newStepCore(code, tr, c.bulk, i, cfg.MaxFaults),
			cluster:  c,
			ep:       ep,
			behavior: cfg.Byzantine[i],
			lies:     make([]E, tr.ResultLen()),
		}
		c.nodes[i].codedState, c.nodes[i].shared = codedStates[i], c.shared
		// Each node's randomized decode check draws from its own stream of
		// Config.Seed (see stepCore.absorb), so seeded runs repeat exactly;
		// the liars' draws from c.rng are left alone.
		c.nodes[i].randomized, c.nodes[i].secret = true, cfg.Seed
		if c.nodes[i].behavior == Crashed {
			// Born crashed: unreachable and without a share until repaired.
			if err := net.SetDown(transport.NodeID(i), true); err != nil {
				return nil, err
			}
			c.nodes[i].codedState = field.ZeroVec(cfg.BaseField, tr.StateLen())
		}
	}
	// Encoding the initial states is setup, not steady-state work.
	counting.Reset()
	return c, nil
}

// Code exposes the underlying Lagrange code (coefficients, points).
func (c *Cluster[E]) Code() *lcc.Code[E] { return c.code }

// Transition returns the measured transition function.
func (c *Cluster[E]) Transition() *sm.Transition[E] { return c.tr }

// Round returns the number of executed rounds.
func (c *Cluster[E]) Round() int { return c.round }

// Epoch returns the number of membership epochs entered so far: it
// advances whenever a churn boundary applies at least one event, so all
// rounds between two increments ran under one static fault pattern.
func (c *Cluster[E]) Epoch() int { return c.epoch }

// Behavior reports node i's current behavior (churn moves it over time).
func (c *Cluster[E]) Behavior(i int) (Behavior, error) {
	if i < 0 || i >= len(c.nodes) {
		return Honest, fmt.Errorf("csm: node %d out of range", i)
	}
	return c.nodes[i].behavior, nil
}

// OpCounts returns the accumulated field-operation counts across all nodes.
func (c *Cluster[E]) OpCounts() field.OpCounts { return c.counting.Counts() }

// OracleStates returns the ground-truth states of all K machines.
func (c *Cluster[E]) OracleStates() [][]E {
	out := make([][]E, len(c.oracle))
	for k, row := range c.oracle {
		out[k] = slices.Clone(row[:c.oracleTr.StateLen()])
	}
	return out
}

// NodeCodedState returns node i's current coded state (copy).
func (c *Cluster[E]) NodeCodedState(i int) ([]E, error) {
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("csm: node %d out of range", i)
	}
	return append([]E(nil), c.nodes[i].codedState...), nil
}

// RoundResult reports one executed round.
type RoundResult[E comparable] struct {
	// Outputs[k] is the client-accepted output of machine k (nil when the
	// client could not gather b+1 matching replies).
	Outputs [][]E
	// Correct reports whether every accepted output matches the uncoded
	// oracle execution.
	Correct bool
	// FaultyDetected is the union of node indices the honest decoders
	// identified as having submitted corrupted results.
	FaultyDetected []int
	// Skipped is true when consensus decided a garbage batch and the
	// execution phase was skipped (commands stay pending).
	Skipped bool
	// Ticks is the number of lock-step network rounds consumed.
	Ticks int
}

// validateBatchShape checks a proposed batch before anything is decided:
// at least one round, K command vectors per round, CmdLen elements each.
// A malformed round is named by its offset within the batch.
func validateBatchShape[E comparable](batch [][][]E, k, cmdLen int) error {
	if len(batch) == 0 {
		return errors.New("csm: empty batch")
	}
	for j, cmds := range batch {
		if len(cmds) != k {
			return &batchRoundError{offset: j, err: fmt.Errorf("%d command vectors for K=%d machines", len(cmds), k)}
		}
		for i, cmd := range cmds {
			if len(cmd) != cmdLen {
				return &batchRoundError{offset: j, err: fmt.Errorf("command %d has length %d, want %d", i, len(cmd), cmdLen)}
			}
		}
	}
	return nil
}

// batchMagic opens every batch payload; batchHdrLen is the fixed header.
var batchMagic = [4]byte{'C', 'S', 'M', 'B'}

const batchHdrLen = 4 + 8 + 4 + 4

// encodeBatchMsg serializes a shape-checked batch as the canonical payload
// for the given round, a fixed little-endian layout like appendResult's and
// internal/consensus/wire.go's: batchMagic, u64 round, u32 vector count
// (steps*K, step-major: step j, machine k at index j*K+k), u32 cmdLen, then
// count*cmdLen canonical u64 elements. Every engine and consensus mode
// proposes and parses these exact bytes, which is what keeps run digests
// identical across them.
func encodeBatchMsg[E comparable](f field.Field[E], round int, batch [][][]E) []byte {
	count, cmdLen := len(batch)*len(batch[0]), len(batch[0][0])
	buf := make([]byte, batchHdrLen, batchHdrLen+8*count*cmdLen)
	copy(buf, batchMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], uint64(round))
	binary.LittleEndian.PutUint32(buf[12:], uint32(count))
	binary.LittleEndian.PutUint32(buf[16:], uint32(cmdLen))
	for _, cmds := range batch {
		for _, cmd := range cmds {
			for _, e := range cmd {
				buf = binary.LittleEndian.AppendUint64(buf, f.Uint64(e))
			}
		}
	}
	return buf
}

// Execution-phase result broadcasts use a fixed binary layout: every node
// receives N-1 of them per round, each parsed in place, allocating nothing
// per message — once per envelope for all its recipients in the simulated
// Cluster (parseResults), into a node's receive rows in a NodeProcess
// (stepCore.ingest). Layout (little-endian): u64 round,
// the [32]byte batch tag, u64 element count, then the canonical field
// representation of each element as a u64. The tag names the batch the
// result was computed on: a NodeProcess may compute step 0 on a batch
// its consensus instance has prepared but not yet decided
// (remote_consensus.go), so it tags every result with the SHA-256 of the
// batch payload and counts only results tagged with the batch it
// executes. The simulated Cluster never speculates and uses clusterTag.
//
// The codec is package-level because it IS the wire format: the simulated
// cluster and the multi-process remote engine (remote.go) encode and
// parse result broadcasts with these exact functions, which is what
// makes a TCP run's traffic round-trip through the same bytes as the
// in-memory oracle's.
const resultHdrLen = 8 + 32 + 8

// clusterTag is the batch tag of the simulated Cluster's results.
var clusterTag [32]byte

// appendResult appends the serialization of a round's result vector,
// computed on the batch tag names, to dst and returns the extended slice.
func appendResult[E comparable](dst []byte, f field.Field[E], round int, tag [32]byte, result []E) []byte {
	hdr := resultHeader(round, tag, len(result))
	dst = append(slices.Grow(dst, resultHdrLen+8*len(result)), hdr[:]...)
	for _, e := range result {
		dst = binary.LittleEndian.AppendUint64(dst, f.Uint64(e))
	}
	return dst
}

// resultHeader is the header of a result broadcast for the given round,
// batch tag and element count.
func resultHeader(round int, tag [32]byte, count int) (hdr [resultHdrLen]byte) {
	binary.LittleEndian.PutUint64(hdr[0:], uint64(round))
	copy(hdr[8:40], tag[:])
	binary.LittleEndian.PutUint64(hdr[40:], uint64(count))
	return hdr
}

// parseResult is the one parser of result broadcasts: it accepts data
// exactly when its header is hdr, resultHeader(round, tag, len(dst)) of
// the result expected, and every element is canonical (FromUint64 would
// reduce a non-canonical one, so two payloads would parse to one result),
// and only then writes the elements into dst; a refusal leaves dst
// untouched. An accepted payload re-encodes to the same bytes.
func parseResult[E comparable](f field.Field[E], data []byte, hdr [resultHdrLen]byte, dst []E) bool {
	if len(data) != resultHdrLen+8*len(dst) || [resultHdrLen]byte(data) != hdr {
		return false
	}
	body := data[resultHdrLen:]
	for i := 0; i < len(body); i += 8 {
		v := binary.LittleEndian.Uint64(body[i:])
		if f.Uint64(f.FromUint64(v)) != v {
			return false
		}
	}
	for i := range dst {
		dst[i] = f.FromUint64(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return true
}

// ExecuteRound agrees on the given commands (one vector per machine) and
// runs the coded execution phase. It returns the per-round report.
func (c *Cluster[E]) ExecuteRound(cmds [][]E) (*RoundResult[E], error) {
	out, err := c.executeBatch([][][]E{cmds}, nil)
	if err != nil {
		var bre *batchRoundError
		if errors.As(err, &bre) {
			// A one-round batch: the offset adds nothing to the message.
			return nil, fmt.Errorf("csm: %w", bre.err)
		}
		return nil, err
	}
	return out[0], nil
}

// runConsensus agrees on the command batch: every node runs its consensus
// instance (newInstance) on the simulated network, a BadLeader proposing
// garbage. It returns the agreed commands (per batch step), or nil if the
// decided batch failed validation (Byzantine leader).
func (c *Cluster[E]) runConsensus(batch [][][]E) ([][][]E, int, error) {
	defer func() { c.instances++ }()
	if c.cfg.Consensus == Oracle {
		// Trusted sequencer: no proposal to serialize, no network phase.
		return batch, 0, nil
	}
	valid := encodeBatchMsg(c.cfg.BaseField, c.round, batch)
	sender := transport.NodeID(c.leaderFor(c.instances))
	nodes := make([]consensus.Node, c.cfg.N)
	waitFor := make([]int, 0, c.cfg.N)
	maxTicks := 0
	for i := range nodes {
		proposal := valid
		if c.cfg.Byzantine[i] == BadLeader {
			proposal = []byte("garbage-batch")
		}
		tr, err := consensus.NewNetTransport(c.net, transport.NodeID(i))
		if err != nil {
			return nil, 0, err
		}
		nodes[i], maxTicks, err = newInstance(c.cfg.Consensus, tr, sender, c.pbftView, c.round, c.cfg.MaxFaults, proposal)
		if err != nil {
			return nil, 0, err
		}
		if c.cfg.Byzantine[i] == Honest {
			waitFor = append(waitFor, i)
		}
	}
	start := c.net.Round()
	err := consensus.Run(c.net, nodes, waitFor, maxTicks)
	// The instance's ticks are the rounds the network stepped, not its
	// budget.
	ticks := c.net.Round() - start
	if err != nil {
		return nil, ticks, err
	}
	// Every honest node decided the same value; the first one's view
	// starts the next instance.
	first := nodes[waitFor[0]]
	c.pbftView = nextView(first, c.pbftView)
	decided, _ := first.Decided()
	return c.agreedCommands(decided, len(batch)), ticks, nil
}

// agreedCommands parses a decided payload. Garbage, or a well-formed batch
// proposed for another round than the cluster is about to execute, yields
// nil: the batch is skipped and its commands stay pending.
func (c *Cluster[E]) agreedCommands(decided []byte, steps int) [][][]E {
	agreed, round, ok := parseBatchMsg(c.cfg.BaseField, decided, steps, c.cfg.K, c.tr.CmdLen())
	if !ok || round != c.round {
		return nil
	}
	return agreed
}

// leaderFor rotates leadership across consensus instances.
func (c *Cluster[E]) leaderFor(instance int) int { return instance % c.cfg.N }

// parseBatchMsg decodes a batch payload (encodeBatchMsg's bytes) into the
// round it was proposed for and its per-step command vectors. steps < 0
// infers the step count from the command count (the remote follower does
// not know the sequencer's batch size up front); a non-negative steps
// additionally pins it. ok is false for anything malformed — every check
// runs before the first allocation, and the decoded commands share one
// backing array. Only canonical elements are accepted, so a payload that
// parses re-encodes to the same bytes.
func parseBatchMsg[E comparable](f field.Field[E], data []byte, steps, k, cmdLen int) (cmds [][][]E, round int, ok bool) {
	if len(data) < batchHdrLen || [4]byte(data[:4]) != batchMagic || k < 1 || cmdLen < 1 {
		return nil, 0, false
	}
	round64 := binary.LittleEndian.Uint64(data[4:])
	count := uint64(binary.LittleEndian.Uint32(data[12:]))
	if steps < 0 {
		steps = int(count / uint64(k)) // a remainder fails the count check below
	}
	// count and cmdLen are both below 2^32, so their product cannot wrap;
	// comparing element counts keeps the factor 8 out of it.
	body := data[batchHdrLen:]
	if round64 > math.MaxInt || count == 0 || count != uint64(steps)*uint64(k) ||
		uint64(binary.LittleEndian.Uint32(data[16:])) != uint64(cmdLen) ||
		len(body)%8 != 0 || uint64(len(body)/8) != count*uint64(cmdLen) {
		return nil, 0, false
	}
	flat := make([]E, len(body)/8)
	for i := range flat {
		v := binary.LittleEndian.Uint64(body[8*i:])
		flat[i] = f.FromUint64(v)
		if f.Uint64(flat[i]) != v {
			return nil, 0, false
		}
	}
	vecs := make([][]E, count)
	for i := range vecs {
		vecs[i] = flat[i*cmdLen : (i+1)*cmdLen : (i+1)*cmdLen]
	}
	cmds = make([][][]E, steps)
	for j := range cmds {
		cmds[j] = vecs[j*k : (j+1)*k : (j+1)*k]
	}
	return cmds, int(round64), true
}
