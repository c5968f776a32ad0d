// Package replication implements the paper's baselines (Section 3): full
// replication (every node runs all K machines), partial replication
// (disjoint groups of q = N/K nodes each run one machine), and the random
// allocation variant discussed in Section 7 together with the dynamic
// (post-facto) adversary that defeats it.
//
// The schemes expose the same round interface and operation accounting as
// the CSM engine so the Table 1 harness can compare security β, storage
// efficiency γ, and throughput λ like-for-like. Consensus cost is excluded
// from throughput, as the paper's metric prescribes (Section 2.2), so these
// engines execute rounds computationally: command agreement is an oracle.
package replication

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"

	"codedsm/internal/field"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

// Behavior selects a node's failure mode; the zero value follows the
// protocol.
type Behavior int

const (
	// Colluding reports the adversary's agreed-upon wrong output — the
	// worst case for majority voting, since all liars match each other.
	Colluding Behavior = iota + 1
	// Crash reports nothing.
	Crash
)

// TransitionFactory mirrors csm.TransitionFactory.
type TransitionFactory[E comparable] func(field.Field[E]) (*sm.Transition[E], error)

// Config configures a replication cluster.
type Config[E comparable] struct {
	// BaseField is the arithmetic field.
	BaseField field.Field[E]
	// NewTransition builds the machines' transition function.
	NewTransition TransitionFactory[E]
	// K machines, N nodes.
	K, N int
	// Mode affects only the security bound formulas ((N-1)/2 vs (N-1)/3).
	Mode transport.Mode
	// Byzantine maps node index to behaviour.
	Byzantine map[int]Behavior
	// InitialStates holds K initial state vectors (nil: zeros).
	InitialStates [][]E
	// Seed drives the adversary's lies.
	Seed uint64
}

// RoundResult reports one replication round.
type RoundResult[E comparable] struct {
	// Outputs[k] is the client-accepted output for machine k, nil if no
	// value reached the acceptance threshold.
	Outputs [][]E
	// Correct is true when every accepted output matches the oracle.
	Correct bool
}

// FullCluster replicates all K machines at all N nodes.
type FullCluster[E comparable] struct {
	cfg      Config[E]
	counting *field.Counting[E]
	replicas [][]*sm.Machine[E] // [node][machine]
	oracle   []*sm.Machine[E]
	rng      *rand.Rand
}

// NewFull builds a full-replication cluster.
func NewFull[E comparable](cfg Config[E]) (*FullCluster[E], error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	counting := field.NewCounting(cfg.BaseField)
	tr, err := cfg.NewTransition(counting)
	if err != nil {
		return nil, err
	}
	oracleTr, err := cfg.NewTransition(cfg.BaseField)
	if err != nil {
		return nil, err
	}
	initial := initialStates(cfg, tr.StateLen())
	c := &FullCluster[E]{
		cfg:      cfg,
		counting: counting,
		replicas: make([][]*sm.Machine[E], cfg.N),
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0xf011)),
	}
	if c.oracle, err = machines(oracleTr, initial); err != nil {
		return nil, err
	}
	for i := range c.replicas {
		if c.replicas[i], err = machines(tr, initial); err != nil {
			return nil, err
		}
	}
	counting.Reset()
	return c, nil
}

// Security returns β_full = (N-1)/2 in synchronous networks and (N-1)/3 in
// partially synchronous ones (Section 3).
func (c *FullCluster[E]) Security() int { return replicaSecurity(c.cfg.N, c.cfg.Mode) }

// StorageEfficiency returns γ_full = 1: each node stores all K states.
func (c *FullCluster[E]) StorageEfficiency() float64 { return 1 }

// OpCounts returns total field operations across all nodes.
func (c *FullCluster[E]) OpCounts() field.OpCounts { return c.counting.Counts() }

// OracleStates returns the ground-truth machine states.
func (c *FullCluster[E]) OracleStates() [][]E { return states(c.oracle) }

// ExecuteRound runs one command per machine at every node and simulates
// client acceptance with the b+1 matching-responses rule, b = Security().
func (c *FullCluster[E]) ExecuteRound(cmds [][]E) (*RoundResult[E], error) {
	if len(cmds) != c.cfg.K {
		return nil, fmt.Errorf("replication: %d commands for K=%d", len(cmds), c.cfg.K)
	}
	oracleOut, err := step(c.oracle, cmds)
	if err != nil {
		return nil, err
	}
	// One colluding lie per machine per round.
	lies := lieVectors(c.cfg.BaseField, c.rng, c.cfg.K, len(oracleOut[0]))
	// Compute phase: honest nodes step all K replicas.
	nodeOuts := make([][][]E, c.cfg.N)
	for i := range nodeOuts {
		switch c.cfg.Byzantine[i] {
		case Crash, Colluding:
			continue
		}
		if nodeOuts[i], err = step(c.replicas[i], cmds); err != nil {
			return nil, err
		}
	}
	votes := make([]map[string]*vote[E], c.cfg.K)
	for k := range votes {
		votes[k] = make(map[string]*vote[E])
	}
	for i := 0; i < c.cfg.N; i++ {
		switch c.cfg.Byzantine[i] {
		case Crash:
			continue
		case Colluding:
			for k := 0; k < c.cfg.K; k++ {
				castVote(c.cfg.BaseField, votes[k], lies[k])
			}
		default:
			for k := 0; k < c.cfg.K; k++ {
				castVote(c.cfg.BaseField, votes[k], nodeOuts[i][k])
			}
		}
	}
	// A client needs b+1 matching replies where b is the tolerated fault
	// count for the scheme.
	return tally(votes, oracleOut, c.Security()+1), nil
}

// vote groups identical replies.
type vote[E comparable] struct {
	value []E
	count int
}

func castVote[E comparable](f field.Field[E], votes map[string]*vote[E], value []E) {
	key := keyOf(f, value)
	if v, ok := votes[key]; ok {
		v.count++
		return
	}
	votes[key] = &vote[E]{value: append([]E(nil), value...), count: 1}
}

func keyOf[E comparable](f field.Field[E], vec []E) string {
	out := make([]uint64, len(vec))
	for i, e := range vec {
		out[i] = f.Uint64(e)
	}
	return fmt.Sprint(out)
}

func tally[E comparable](votes []map[string]*vote[E], oracleOut [][]E, threshold int) *RoundResult[E] {
	res := &RoundResult[E]{Outputs: make([][]E, len(votes)), Correct: true}
	for k, byValue := range votes {
		best := 0
		for _, v := range byValue {
			if v.count >= threshold && v.count > best {
				best = v.count
				res.Outputs[k] = v.value
			}
		}
		if res.Outputs[k] == nil || !slices.Equal(res.Outputs[k], oracleOut[k]) {
			res.Correct = false
		}
	}
	return res
}

// --- shared helpers ---

var errConfig = errors.New("replication: invalid configuration")

func validate[E comparable](cfg *Config[E]) error {
	if cfg.BaseField == nil || cfg.NewTransition == nil {
		return fmt.Errorf("%w: BaseField and NewTransition required", errConfig)
	}
	if cfg.K < 1 || cfg.N < cfg.K {
		return fmt.Errorf("%w: need 1 <= K <= N (K=%d N=%d)", errConfig, cfg.K, cfg.N)
	}
	return nil
}

func initialStates[E comparable](cfg Config[E], stateLen int) [][]E {
	if cfg.InitialStates != nil {
		return cfg.InitialStates
	}
	out := make([][]E, cfg.K)
	for k := range out {
		out[k] = field.ZeroVec(cfg.BaseField, stateLen)
	}
	return out
}

func machines[E comparable](tr *sm.Transition[E], initial [][]E) ([]*sm.Machine[E], error) {
	out := make([]*sm.Machine[E], len(initial))
	for k, st := range initial {
		m, err := sm.NewMachine(tr, st)
		if err != nil {
			return nil, err
		}
		out[k] = m
	}
	return out, nil
}

func step[E comparable](ms []*sm.Machine[E], cmds [][]E) ([][]E, error) {
	out := make([][]E, len(ms))
	for k, m := range ms {
		o, err := m.Step(cmds[k])
		if err != nil {
			return nil, err
		}
		out[k] = o
	}
	return out, nil
}

func states[E comparable](ms []*sm.Machine[E]) [][]E {
	out := make([][]E, len(ms))
	for k, m := range ms {
		out[k] = m.State()
	}
	return out
}

func lieVectors[E comparable](f field.Field[E], rng *rand.Rand, k, l int) [][]E {
	out := make([][]E, k)
	for i := range out {
		out[i] = field.RandVec(f, rng, l)
	}
	return out
}

func replicaSecurity(n int, mode transport.Mode) int {
	if mode == transport.PartialSync {
		return (n - 1) / 3
	}
	return (n - 1) / 2
}
