// Package sm defines the state machines CSM executes: a deterministic
// transition function (S(t+1), Y(t)) = f(S(t), X(t)) whose every output
// coordinate is a multivariate polynomial over the field (Section 4 of the
// paper), together with a library of concrete machines used by the examples
// and the benchmark harness, and the Appendix A construction that turns an
// arbitrary Boolean function into such a polynomial over GF(2^m).
package sm

import (
	"errors"
	"fmt"

	"codedsm/internal/field"
	"codedsm/internal/mvpoly"
)

// ErrDimension reports state/command vectors of the wrong length.
var ErrDimension = errors.New("sm: dimension mismatch")

// Transition is a polynomial state transition function. The polynomials
// take StateLen+CmdLen variables: the state coordinates first, then the
// command coordinates.
type Transition[E comparable] struct {
	f         field.Field[E]
	stateLen  int
	cmdLen    int
	nextState []mvpoly.Poly[E]
	output    []mvpoly.Poly[E]
	degree    int
	name      string
}

// NewTransition builds a transition from explicit polynomials. nextState
// must have one polynomial per state coordinate; output may have any
// positive length.
func NewTransition[E comparable](f field.Field[E], name string, stateLen, cmdLen int,
	nextState, output []mvpoly.Poly[E]) (*Transition[E], error) {
	if stateLen < 1 || cmdLen < 1 {
		return nil, fmt.Errorf("sm: state and command must be non-empty (got %d, %d)", stateLen, cmdLen)
	}
	if len(nextState) != stateLen {
		return nil, fmt.Errorf("sm: %d next-state polynomials for state length %d: %w",
			len(nextState), stateLen, ErrDimension)
	}
	if len(output) < 1 {
		return nil, fmt.Errorf("sm: transition needs at least one output polynomial")
	}
	nvars := stateLen + cmdLen
	degree := 1 // a constant transition still occupies a degree-1 codeword slot
	for _, p := range append(append([]mvpoly.Poly[E]{}, nextState...), output...) {
		if p.NumVars() != nvars {
			return nil, fmt.Errorf("sm: polynomial over %d variables, want %d: %w",
				p.NumVars(), nvars, ErrDimension)
		}
		if d := p.TotalDegree(); d > degree {
			degree = d
		}
	}
	return &Transition[E]{
		f:         f,
		stateLen:  stateLen,
		cmdLen:    cmdLen,
		nextState: nextState,
		output:    output,
		degree:    degree,
		name:      name,
	}, nil
}

// FromExprs builds a transition by parsing polynomial expressions over
// named state and command variables; see mvpoly.Parse for the grammar.
func FromExprs[E comparable](f field.Field[E], name string, stateVars, cmdVars []string,
	nextExprs, outExprs []string) (*Transition[E], error) {
	vars := append(append([]string{}, stateVars...), cmdVars...)
	parseAll := func(exprs []string) ([]mvpoly.Poly[E], error) {
		out := make([]mvpoly.Poly[E], len(exprs))
		for i, e := range exprs {
			p, err := mvpoly.Parse(f, e, vars)
			if err != nil {
				return nil, fmt.Errorf("sm: expression %q: %w", e, err)
			}
			out[i] = p
		}
		return out, nil
	}
	next, err := parseAll(nextExprs)
	if err != nil {
		return nil, err
	}
	outs, err := parseAll(outExprs)
	if err != nil {
		return nil, err
	}
	return NewTransition(f, name, len(stateVars), len(cmdVars), next, outs)
}

// Name returns the human-readable machine name.
func (t *Transition[E]) Name() string { return t.name }

// Field returns the underlying field.
func (t *Transition[E]) Field() field.Field[E] { return t.f }

// StateLen returns the number of state coordinates.
func (t *Transition[E]) StateLen() int { return t.stateLen }

// CmdLen returns the number of command coordinates.
func (t *Transition[E]) CmdLen() int { return t.cmdLen }

// OutLen returns the number of output coordinates.
func (t *Transition[E]) OutLen() int { return len(t.output) }

// ResultLen returns StateLen+OutLen: the length of the combined result
// vector (next state followed by output) a node computes per round.
func (t *Transition[E]) ResultLen() int { return t.stateLen + len(t.output) }

// Degree returns the maximum total degree d over all transition
// polynomials; CSM's fault-tolerance bounds are all functions of d.
func (t *Transition[E]) Degree() int { return t.degree }

// Apply executes the transition: it returns the next state and the output.
// It works identically on uncoded and Lagrange-coded inputs — that is the
// key property CSM exploits (coded execution, Section 5.2).
func (t *Transition[E]) Apply(state, cmd []E) (next, out []E, err error) {
	res, err := t.ApplyResult(state, cmd)
	if err != nil {
		return nil, nil, err
	}
	return res[:t.stateLen:t.stateLen], res[t.stateLen:], nil
}

// ApplyResult executes the transition and returns the combined result
// vector [next state | output] — the vector a CSM node broadcasts — in a
// fresh allocation of its own.
func (t *Transition[E]) ApplyResult(state, cmd []E) ([]E, error) {
	l := t.ResultLen()
	buf := make([]E, l+t.stateLen+t.cmdLen)
	if err := t.ApplyResultInto(buf[:l:l], buf[l:], state, cmd); err != nil {
		return nil, err
	}
	return buf[:l:l], nil
}

// ApplyResultInto is ApplyResult into caller scratch: it writes the
// result [next state | output] to dst, of length ResultLen, and holds the
// inputs in args, of length StateLen+CmdLen, while the polynomials are
// evaluated, allocating nothing. state and cmd are copied into args before
// dst is written, so dst may overlap them.
func (t *Transition[E]) ApplyResultInto(dst, args, state, cmd []E) error {
	if len(state) != t.stateLen {
		return fmt.Errorf("sm: state length %d, want %d: %w", len(state), t.stateLen, ErrDimension)
	}
	if len(cmd) != t.cmdLen {
		return fmt.Errorf("sm: command length %d, want %d: %w", len(cmd), t.cmdLen, ErrDimension)
	}
	if len(dst) != t.ResultLen() || len(args) != t.stateLen+t.cmdLen {
		return fmt.Errorf("sm: result and argument buffers of length %d and %d, want %d and %d: %w",
			len(dst), len(args), t.ResultLen(), t.stateLen+t.cmdLen, ErrDimension)
	}
	copy(args, state)
	copy(args[t.stateLen:], cmd)
	var err error
	for i, p := range t.nextState {
		if dst[i], err = p.Eval(t.f, args); err != nil {
			return err
		}
	}
	out := dst[t.stateLen:]
	for i, p := range t.output {
		if out[i], err = p.Eval(t.f, args); err != nil {
			return err
		}
	}
	return nil
}

// SplitResult splits a combined result vector back into next state and
// output.
func (t *Transition[E]) SplitResult(result []E) (next, out []E, err error) {
	if len(result) != t.ResultLen() {
		return nil, nil, fmt.Errorf("sm: result length %d, want %d: %w", len(result), t.ResultLen(), ErrDimension)
	}
	return result[:t.stateLen], result[t.stateLen:], nil
}

// Machine is an uncoded reference state machine: the ground truth used by
// the replication baselines and as the correctness oracle in tests.
type Machine[E comparable] struct {
	tr    *Transition[E]
	state []E
	round int
}

// NewMachine creates a machine with the given initial state (copied).
func NewMachine[E comparable](tr *Transition[E], initial []E) (*Machine[E], error) {
	if len(initial) != tr.StateLen() {
		return nil, fmt.Errorf("sm: initial state length %d, want %d: %w", len(initial), tr.StateLen(), ErrDimension)
	}
	return &Machine[E]{tr: tr, state: append([]E(nil), initial...)}, nil
}

// State returns a copy of the current state.
func (m *Machine[E]) State() []E { return append([]E(nil), m.state...) }

// Round returns the number of commands executed so far.
func (m *Machine[E]) Round() int { return m.round }

// SetState replaces the machine's state (copied) without advancing the
// round counter — the handoff primitive behind migrating a machine
// between clusters: the receiving cluster's oracle adopts the state the
// sending cluster decoded.
func (m *Machine[E]) SetState(state []E) error {
	if len(state) != m.tr.StateLen() {
		return fmt.Errorf("sm: state length %d, want %d: %w", len(state), m.tr.StateLen(), ErrDimension)
	}
	m.state = append(m.state[:0:0], state...)
	return nil
}

// Step executes one command, advancing the state and returning the output.
func (m *Machine[E]) Step(cmd []E) ([]E, error) {
	next, out, err := m.tr.Apply(m.state, cmd)
	if err != nil {
		return nil, err
	}
	m.state = next
	m.round++
	return out, nil
}
