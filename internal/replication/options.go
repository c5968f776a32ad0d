package replication

import (
	"fmt"

	"codedsm/internal/field"
)

// Option configures a baseline cluster built with OpenFull or OpenPartial.
// Options validate eagerly, mirroring the csm package's Open: a
// constructor given an out-of-range value returns an option that fails the
// open call with a message naming the option.
type Option func(*settings) error

// settings accumulates the baseline knobs an Option can set.
type settings struct {
	n, k      int
	byzantine map[int]Behavior
	seed      uint64
}

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

// WithMachines sets the number of state machines K. Required.
func WithMachines(k int) Option {
	if k < 1 {
		return optionErr("WithMachines(%d): need at least one machine", k)
	}
	return func(s *settings) error { s.k = k; return nil }
}

// WithByzantine assigns failure modes to nodes (merged over previous
// applications; the map is copied).
func WithByzantine(behaviors map[int]Behavior) Option {
	return func(s *settings) error {
		if s.byzantine == nil {
			s.byzantine = make(map[int]Behavior, len(behaviors))
		}
		for i, b := range behaviors {
			s.byzantine[i] = b
		}
		return nil
	}
}

// WithSeed seeds the adversary's lies.
func WithSeed(seed uint64) Option {
	return func(s *settings) error { s.seed = seed; return nil }
}

// buildConfig assembles the generic Config from applied options.
func buildConfig[E comparable](f field.Field[E], tf TransitionFactory[E], opts []Option) (Config[E], error) {
	var s settings
	for _, opt := range opts {
		if opt == nil {
			return Config[E]{}, fmt.Errorf("replication: nil Option")
		}
		if err := opt(&s); err != nil {
			return Config[E]{}, fmt.Errorf("replication: %w", err)
		}
	}
	return Config[E]{
		BaseField:     f,
		NewTransition: tf,
		K:             s.k,
		N:             s.n,
		Byzantine:     s.byzantine,
		Seed:          s.seed,
	}, nil
}

// OpenFull builds the full-replication baseline from functional options —
// the options-based front door to NewFull.
func OpenFull[E comparable](f field.Field[E], newTransition TransitionFactory[E], opts ...Option) (*FullCluster[E], error) {
	cfg, err := buildConfig(f, newTransition, opts)
	if err != nil {
		return nil, err
	}
	return NewFull(cfg)
}

// OpenPartial builds the partial-replication baseline from functional
// options — the options-based front door to NewPartial.
func OpenPartial[E comparable](f field.Field[E], newTransition TransitionFactory[E], opts ...Option) (*PartialCluster[E], error) {
	cfg, err := buildConfig(f, newTransition, opts)
	if err != nil {
		return nil, err
	}
	return NewPartial(cfg)
}
