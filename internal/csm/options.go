package csm

import (
	"fmt"

	"codedsm/internal/field"
	"codedsm/internal/transport"
)

// Option configures a cluster built with Open. Options validate eagerly:
// a constructor given an out-of-range value returns an option that fails
// Open with a message naming the option and the value, so misconfiguration
// surfaces at the call site rather than deep inside the engine.
//
// The Config struct remains the internal representation (and New its
// constructor) — Open is the options-based front door:
//
//	cluster, err := csm.Open(gold, bankFactory,
//		csm.WithNodes(64), csm.WithMachines(22), csm.WithFaults(21),
//		csm.WithConsensus(csm.PBFT), csm.WithPartialSync(0),
//		csm.WithBatching(8), csm.WithPipeline(2))
type Option func(*settings) error

// settings accumulates the non-generic cluster knobs an Option can set.
// The only generic configuration — the initial states — travels as an
// opaque value and is type-checked against the cluster's field element in
// Open.
type settings struct {
	n, k, maxFaults int
	mode            transport.Mode
	gst             int
	consensus       ConsensusKind
	byzantine       map[int]Behavior
	delegated       bool
	seed            uint64
	batchSize       int
	pipeline        int
	churn           []ChurnEvent
	churnFn         func(round int) []ChurnEvent
	initialStates   any // [][]E, asserted in Open
}

// optionErr builds an Option that fails Open with the given message.
func optionErr(format string, args ...any) Option {
	err := fmt.Errorf(format, args...)
	return func(*settings) error { return err }
}

// WithNodes sets the network size N. Required.
func WithNodes(n int) Option {
	if n < 1 {
		return optionErr("WithNodes(%d): need at least one node", n)
	}
	return func(s *settings) error { s.n = n; return nil }
}

// WithMachines sets the number of state machines K. When omitted, Open
// sizes K to the cluster's full Table 2 capacity for its N, fault budget,
// transition degree, and network mode.
func WithMachines(k int) Option {
	if k < 1 {
		return optionErr("WithMachines(%d): need at least one machine", k)
	}
	return func(s *settings) error { s.k = k; return nil }
}

// WithFaults sets the engineering fault budget b the cluster is sized for.
func WithFaults(b int) Option {
	if b < 0 {
		return optionErr("WithFaults(%d): the fault budget cannot be negative", b)
	}
	return func(s *settings) error { s.maxFaults = b; return nil }
}

// WithConsensus selects the consensus-phase protocol (Oracle, DolevStrong,
// or PBFT; the default is the trusted-sequencer Oracle the paper's
// throughput metric prescribes).
func WithConsensus(kind ConsensusKind) Option {
	switch kind {
	case Oracle, DolevStrong, PBFT:
	default:
		return optionErr("WithConsensus(%d): unknown consensus kind", int(kind))
	}
	return func(s *settings) error { s.consensus = kind; return nil }
}

// WithPartialSync switches the network to the partially synchronous timing
// model with the given global stabilization round (the default model is
// synchronous).
func WithPartialSync(gst int) Option {
	if gst < 0 {
		return optionErr("WithPartialSync(%d): negative stabilization round", gst)
	}
	return func(s *settings) error {
		s.mode = transport.PartialSync
		s.gst = gst
		return nil
	}
}

// WithByzantine assigns misbehaviours to nodes (merged over any previously
// applied WithByzantine/WithByzantineNode entries; the map is copied).
func WithByzantine(behaviors map[int]Behavior) Option {
	return func(s *settings) error {
		if s.byzantine == nil {
			s.byzantine = make(map[int]Behavior, len(behaviors))
		}
		//csmlint:allow detmap(map-to-map merge of disjoint keys is order-independent)
		for i, b := range behaviors {
			s.byzantine[i] = b
		}
		return nil
	}
}

// WithByzantineNode assigns one node's misbehaviour.
func WithByzantineNode(node int, behavior Behavior) Option {
	if node < 0 {
		return optionErr("WithByzantineNode(%d, %v): negative node index", node, behavior)
	}
	return func(s *settings) error {
		if s.byzantine == nil {
			s.byzantine = make(map[int]Behavior, 1)
		}
		s.byzantine[node] = behavior
		return nil
	}
}

// WithDelegated enables the Section 6.2 delegated execution phase (a
// rotating verified worker performs all coding). Delegation requires a
// synchronous broadcast network (the Section 6 assumption: equivocating
// senders are coerced to a single payload), which this option implies.
// It composes with WithBatching and WithPipeline; WithChurn and
// WithChurnFn are refused with it.
func WithDelegated() Option {
	return func(s *settings) error { s.delegated = true; return nil }
}

// WithSeed seeds all cluster and network randomness.
func WithSeed(seed uint64) Option {
	return func(s *settings) error { s.seed = seed; return nil }
}

// WithBatching groups the given number of consecutive workload rounds
// under one consensus instance (command batching; see Config.BatchSize).
func WithBatching(rounds int) Option {
	if rounds < 0 {
		return optionErr("WithBatching(%d): negative batch size", rounds)
	}
	return func(s *settings) error { s.batchSize = rounds; return nil }
}

// WithPipeline enables the pipelined engine at the given depth: up to that
// many decided rounds may have their client stage outstanding while the
// driver executes later rounds (see Config.Pipeline).
func WithPipeline(depth int) Option {
	if depth < 0 {
		return optionErr("WithPipeline(%d): negative pipeline depth", depth)
	}
	return func(s *settings) error { s.pipeline = depth; return nil }
}

// WithChurn appends scheduled membership and adversary changes
// (accumulates over repeated applications; see Config.Churn).
func WithChurn(events ...ChurnEvent) Option {
	return func(s *settings) error {
		s.churn = append(s.churn, events...)
		return nil
	}
}

// WithChurnFn installs a dynamic churn generator (see Config.ChurnFn and
// MovingAdversary).
func WithChurnFn(fn func(round int) []ChurnEvent) Option {
	if fn == nil {
		return optionErr("WithChurnFn(nil): need a generator (omit the option for no churn)")
	}
	return func(s *settings) error { s.churnFn = fn; return nil }
}

// WithInitialStates sets the K machines' initial state vectors (the
// default is all-zero states). The element type must match the cluster's
// field element; Open reports a mismatch by name.
func WithInitialStates[E comparable](states [][]E) Option {
	return func(s *settings) error { s.initialStates = states; return nil }
}

// Open builds and initializes a cluster from functional options — the
// serving-oriented front door to New. The field and transition factory are
// positional because every cluster needs them; everything else is an
// Option with engine defaults. When WithMachines is omitted, K defaults to
// the full Table 2 capacity of the configured N, b, transition degree, and
// network mode.
func Open[E comparable](f field.Field[E], newTransition TransitionFactory[E], opts ...Option) (*Cluster[E], error) {
	if f == nil || newTransition == nil {
		return nil, fmt.Errorf("csm: Open: the field and transition factory are required")
	}
	var s settings
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("csm: Open: nil Option")
		}
		if err := opt(&s); err != nil {
			return nil, fmt.Errorf("csm: Open: %w", err)
		}
	}
	if s.n == 0 {
		return nil, fmt.Errorf("csm: Open: WithNodes is required")
	}
	if s.k == 0 {
		// Default K to the full capacity (Table 2) — the transition is
		// built once here to learn its degree; New builds its own.
		tr, err := newTransition(f)
		if err != nil {
			return nil, fmt.Errorf("csm: Open: building transition: %w", err)
		}
		s.k = maxMachines(s.mode, s.n, s.maxFaults, tr.Degree())
		if s.k < 1 {
			return nil, fmt.Errorf("csm: Open: no machine capacity at N=%d b=%d d=%d (%s); lower WithFaults or raise WithNodes",
				s.n, s.maxFaults, tr.Degree(), s.mode)
		}
	}
	cfg := Config[E]{
		BaseField:     f,
		NewTransition: newTransition,
		K:             s.k,
		N:             s.n,
		MaxFaults:     s.maxFaults,
		Mode:          s.mode,
		GST:           s.gst,
		Consensus:     s.consensus,
		Byzantine:     s.byzantine,
		Delegated:     s.delegated,
		Seed:          s.seed,
		BatchSize:     s.batchSize,
		Pipeline:      s.pipeline,
		Churn:         s.churn,
		ChurnFn:       s.churnFn,
	}
	if s.initialStates != nil {
		states, ok := s.initialStates.([][]E)
		if !ok {
			return nil, fmt.Errorf("csm: Open: WithInitialStates element type %T does not match the cluster's field element %T",
				s.initialStates, *new(E))
		}
		cfg.InitialStates = states
	}
	return New(cfg)
}
