package csm

import "sync"

// clientStage is the background half of the pipelined engine: one
// goroutine consuming finished execution micro-steps in FIFO order,
// advancing the ground-truth oracle and running the client tally/audit
// while the driving goroutine already executes the consensus and coded
// execution phases of later rounds.
//
// Safety: each outcome references only immutable per-round snapshots (see
// stepOutcome), the stage alone touches the oracle machines while open,
// and the client phase works over the uncounted base field, so operation
// totals are identical to sequential execution.
type clientStage[E comparable] struct {
	c    *Cluster[E]
	jobs chan *stepOutcome[E]
	done chan struct{}

	mu        sync.Mutex
	err       error
	completed int
}

func newClientStage[E comparable](c *Cluster[E], depth int) *clientStage[E] {
	s := &clientStage[E]{
		c:    c,
		jobs: make(chan *stepOutcome[E], depth),
		done: make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *clientStage[E]) run() {
	defer close(s.done)
	for o := range s.jobs {
		if s.failed() != nil {
			continue // drain the queue without processing past a failure
		}
		if !o.skip {
			if err := s.c.finishStep(o); err != nil {
				s.fail(err)
				continue
			}
		}
		s.mu.Lock()
		s.completed++
		s.mu.Unlock()
	}
}

func (s *clientStage[E]) enqueue(o *stepOutcome[E]) { s.jobs <- o }

func (s *clientStage[E]) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *clientStage[E]) failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// drain closes the stage, waits for the queue to empty, and reports how
// many rounds fully completed along with the stage's first error.
func (s *clientStage[E]) drain() (int, error) {
	close(s.jobs)
	<-s.done
	return s.completed, s.err // no concurrent access after done
}
