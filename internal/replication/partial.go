package replication

import (
	"fmt"
	"math/rand/v2"

	"codedsm/internal/field"
	"codedsm/internal/sm"
)

// PartialCluster replicates machine k only at its group of q = N/K nodes.
// Storage efficiency rises to γ = K but security falls to (q-1)/2 per
// machine: an adversary that concentrates ⌈q/2⌉ colluding nodes in one
// group controls that machine's clients (Section 3).
type PartialCluster[E comparable] struct {
	cfg      Config[E]
	counting *field.Counting[E]
	q        int
	group    []int // node -> machine index
	replicas []*sm.Machine[E]
	oracle   []*sm.Machine[E]
	rng      *rand.Rand
}

// NewPartial builds a partial-replication cluster; N must be divisible by K.
func NewPartial[E comparable](cfg Config[E]) (*PartialCluster[E], error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.N%cfg.K != 0 {
		return nil, fmt.Errorf("%w: N=%d not divisible by K=%d", errConfig, cfg.N, cfg.K)
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
	c := &PartialCluster[E]{
		cfg:      cfg,
		counting: counting,
		q:        cfg.N / cfg.K,
		group:    make([]int, cfg.N),
		replicas: make([]*sm.Machine[E], cfg.N),
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0x9a57)),
	}
	if c.oracle, err = machines(oracleTr, initial); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.N; i++ {
		k := i / c.q
		c.group[i] = k
		m, err := sm.NewMachine(tr, initial[k])
		if err != nil {
			return nil, err
		}
		c.replicas[i] = m
	}
	counting.Reset()
	return c, nil
}

// GroupSize returns q = N/K.
func (c *PartialCluster[E]) GroupSize() int { return c.q }

// GroupOf returns the machine index node i serves.
func (c *PartialCluster[E]) GroupOf(i int) int { return c.group[i] }

// Security returns β_partial = (q-1)/2 (or (q-1)/3 partially synchronous):
// the adversary only needs to corrupt a majority of one group.
func (c *PartialCluster[E]) Security() int { return replicaSecurity(c.q, c.cfg.Mode) }

// StorageEfficiency returns γ_partial = K.
func (c *PartialCluster[E]) StorageEfficiency() float64 { return float64(c.cfg.K) }

// OpCounts returns total field operations across all nodes.
func (c *PartialCluster[E]) OpCounts() field.OpCounts { return c.counting.Counts() }

// OracleStates returns the ground-truth machine states.
func (c *PartialCluster[E]) OracleStates() [][]E { return states(c.oracle) }

// ExecuteRound executes one command per machine within its group and
// applies the majority rule per group: acceptance threshold is a majority
// of the group, (q+2)/2 rounded down... precisely floor(q/2)+1.
func (c *PartialCluster[E]) ExecuteRound(cmds [][]E) (*RoundResult[E], error) {
	if len(cmds) != c.cfg.K {
		return nil, fmt.Errorf("replication: %d commands for K=%d", len(cmds), c.cfg.K)
	}
	oracleOut, err := step(c.oracle, cmds)
	if err != nil {
		return nil, err
	}
	lies := lieVectors(c.cfg.BaseField, c.rng, c.cfg.K, len(oracleOut[0]))
	// Compute phase: each honest node steps its group's machine.
	nodeOuts := make([][]E, c.cfg.N)
	for i := range nodeOuts {
		switch c.cfg.Byzantine[i] {
		case Crash, Colluding:
			continue
		}
		if nodeOuts[i], err = c.replicas[i].Step(cmds[c.group[i]]); err != nil {
			return nil, err
		}
	}
	votes := make([]map[string]*vote[E], c.cfg.K)
	for k := range votes {
		votes[k] = make(map[string]*vote[E])
	}
	for i := 0; i < c.cfg.N; i++ {
		k := c.group[i]
		switch c.cfg.Byzantine[i] {
		case Crash:
			continue
		case Colluding:
			castVote(c.cfg.BaseField, votes[k], lies[k])
		default:
			castVote(c.cfg.BaseField, votes[k], nodeOuts[i])
		}
	}
	return tally(votes, oracleOut, c.q/2+1), nil
}

// ConcentratedAttack returns a Byzantine map that corrupts the smallest
// number of nodes sufficient to control machine `target`'s group — the
// attack that collapses partial replication's security to Θ(N/K).
func ConcentratedAttack(n, k, target int) (map[int]Behavior, error) {
	if k < 1 || n%k != 0 {
		return nil, fmt.Errorf("%w: N=%d K=%d", errConfig, n, k)
	}
	q := n / k
	if target < 0 || target >= k {
		return nil, fmt.Errorf("%w: target machine %d", errConfig, target)
	}
	out := make(map[int]Behavior, q/2+1)
	for i := 0; i < q/2+1; i++ {
		out[target*q+i] = Colluding
	}
	return out, nil
}
