package csm

import (
	"errors"
	"fmt"
)

// The package's error taxonomy. Run attaches a *BatchError to every
// mid-workload failure, so callers recover the completed prefix and the
// failed round with errors.As instead of string inspection; the sentinels
// below classify *why* a run, a membership change, or a submission failed
// and are matched with errors.Is.
var (
	// ErrRoundStuck reports a round that did not complete within the tick
	// budget (e.g. too many silent nodes in partial synchrony).
	ErrRoundStuck = errors.New("csm: round did not complete within tick budget")

	// ErrRoundLimit reports a workload round that could not be executed
	// within its retry budget: every consensus instance of an ingress
	// client's leader rotation decided a garbage batch and the commands are
	// still pending.
	ErrRoundLimit = errors.New("csm: round retry limit reached")

	// ErrFaultBudgetExceeded reports a fault pattern whose Reed-Solomon
	// load (2 parity symbols per error, 1 per erasure) exceeds the 2b
	// budget the cluster is sized for — at construction, or when a churn
	// event would push the live pattern over it.
	ErrFaultBudgetExceeded = errors.New("csm: fault budget exceeded")

	// ErrQuorumUnreachable reports a fault pattern that keeps some quorum
	// threshold from ever being met: fewer than b+1 honest client repliers
	// (Table 2, output delivery), more than b non-senders in partial
	// synchrony (the N-b decode threshold), fewer than 2b+1 live PBFT
	// voters — or, on a Future, a round whose machine output never gathered
	// b+1 matching replies.
	ErrQuorumUnreachable = errors.New("csm: quorum unreachable")

	// ErrClientClosed reports a Submit on an ingress client that has been
	// closed (or whose scheduler already failed; the failure is attached).
	ErrClientClosed = errors.New("csm: client closed")

	// ErrClientOpen reports a second Open, or a direct cluster-state
	// operation (DecodeMachineState, AdoptMachineState), attempted while an
	// ingress client is open — between Open and Close the scheduler
	// goroutine owns the cluster.
	ErrClientOpen = errors.New("csm: the cluster has an open client (Close it first)")

	// ErrConsensusConfig reports a consensus selection that can never work
	// for the cluster shape — PBFT with N < 3b+1, an unknown kind, or a
	// driver entry point that does not match the configured protocol
	// (RunWorkload under Oracle, LeadBatch under BFT). It is raised
	// eagerly, by ValidateRemoteConsensus (which New and NewNodeProcess
	// run) and csmnode bootstrap, before any round or socket.
	ErrConsensusConfig = errors.New("csm: invalid consensus configuration")

	// ErrConsensusMismatch reports a durable data directory whose applied
	// records were decided under a different consensus protocol than the
	// process is configured for: resuming would splice two histories whose
	// decisions are not interchangeable.
	ErrConsensusMismatch = errors.New("csm: durable state was decided under a different consensus protocol")
)

// BatchError is the structured form of every mid-workload failure: Err is
// the underlying cause, Round the workload index of the round it is
// attributed to, and Completed the reports of every round that fully
// completed before the failure — always a prefix of the workload, and the
// same slice Run returned alongside the error. Callers unwrap it with
// errors.As:
//
//	results, err := cluster.Run(workload)
//	var batchErr *csm.BatchError[uint64]
//	if errors.As(err, &batchErr) {
//		log.Printf("round %d failed after %d completed rounds: %v",
//			batchErr.Round, len(batchErr.Completed), batchErr.Err)
//	}
//
// errors.Is sees through it to the cause (ErrRoundStuck, ErrRoundLimit,
// context.Canceled, ...).
type BatchError[E comparable] struct {
	// Completed holds the reports of the rounds that fully completed
	// before the failure (a workload prefix; possibly empty).
	Completed []*RoundResult[E]
	// Round is the workload index of the failed round.
	Round int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *BatchError[E]) Error() string {
	return fmt.Sprintf("csm: round %d: %v", e.Round, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *BatchError[E]) Unwrap() error { return e.Err }

// newBatchError attributes a workload failure to a round: completed is the
// prefix of fully completed reports, base the batch's first workload
// round, failed the first round that did not complete. A batchRoundError
// names the offending round within its batch (which may sit later in the
// failed batch than the rounds it prevented from executing); any other
// cause is attributed to the first unexecuted round.
func newBatchError[E comparable](err error, completed []*RoundResult[E], base, failed int) *BatchError[E] {
	var bre *batchRoundError
	if errors.As(err, &bre) {
		return &BatchError[E]{Completed: completed, Round: base + bre.offset, Err: bre.err}
	}
	return &BatchError[E]{Completed: completed, Round: failed, Err: err}
}
