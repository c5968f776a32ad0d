package csm

import "sync"

// DefaultPipelineDepth is the client-stage queue depth RunPipelined uses
// when Config.Pipeline is zero: the driving goroutine may run up to this
// many rounds ahead of the client stage, so up to DefaultPipelineDepth+1
// rounds are in flight at once.
const DefaultPipelineDepth = 3

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

// RunPipelined executes the workload on the pipelined engine regardless of
// Config.Pipeline (whose value, when positive, sets the depth; otherwise
// DefaultPipelineDepth is used). Results are bit-identical to Run's
// sequential engine — see the package documentation for the
// happens-before contract that makes the overlap safe.
//
// The error contract matches Run: the reports of every fully completed
// round (a workload prefix) are returned together with a *BatchError
// carrying that prefix and the failed round's index.
func (c *Cluster[E]) RunPipelined(rounds [][][]E) ([]*RoundResult[E], error) {
	depth := c.cfg.Pipeline
	if depth <= 0 {
		depth = DefaultPipelineDepth
	}
	stage := newClientStage(c, depth)
	out := make([]*RoundResult[E], 0, len(rounds))
	var cause error
	var causeBase, causeFailed int
	bs := c.batchSize()
	for start := 0; start < len(rounds); start += bs {
		end := min(start+bs, len(rounds))
		res, err := c.executeBatch(rounds[start:end], stage)
		out = append(out, res...)
		if err != nil {
			cause, causeBase, causeFailed = err, start, start+len(res)
			break
		}
		if stage.failed() != nil {
			break
		}
	}
	completed, stageErr := stage.drain()
	if stageErr != nil {
		// A stage failure happened at round `completed` — chronologically
		// before any driver error, which can only strike a later round
		// (the driver runs ahead of the stage). Report the first failure
		// so the error names the round right after the returned prefix.
		cause, causeBase, causeFailed = stageErr, completed, completed
	}
	if completed < len(out) {
		// Keep Round() consistent with the returned prefix, exactly as
		// the sequential engine does when a client phase fails: rounds
		// the driver executed ahead of the failed stage job don't count.
		c.round -= len(out) - completed
		out = out[:completed]
	}
	if cause != nil {
		return out, newBatchError(cause, out, causeBase, causeFailed)
	}
	return out, nil
}
