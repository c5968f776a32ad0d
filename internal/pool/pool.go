// Package pool provides the deterministic fork-join worker pool the
// parallel execution engine is built on. The paper's Theorem 1 claims
// throughput λ that scales linearly in N; realizing that on real hardware
// requires fanning the per-node work of a round — coded transition
// computes, per-dimension encode/decode columns, and the Reed-Solomon
// error-locator solves — across CPU cores without perturbing the simulated
// protocol.
//
// Determinism contract: Run partitions the index space [0, n) across
// workers, and callers write each index's result into a caller-owned,
// index-addressed slot. Because slots are disjoint and every index is
// processed exactly once, the observable output is bit-identical to the
// sequential loop regardless of goroutine scheduling. Shared state touched
// by fn must be either immutable, atomic (e.g. field.Counting's counters,
// which commute), or mutex-protected.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default worker count: runtime.GOMAXPROCS(0).
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Clamp normalizes a requested worker count for n independent work items:
// workers <= 0 selects DefaultWorkers, and the result never exceeds n (a
// worker with no work is never spawned) nor drops below 1.
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 selects DefaultWorkers). With one worker — or n < 2 — it
// degenerates to the plain sequential loop.
//
// Every index is attempted even if another index fails, whatever the
// worker count, so fn must be safe to run for all indices and the work
// done (field ops counted inside fn, say) does not depend on workers; the
// error reported is the one with the lowest index.
func Run(workers, n int, fn func(i int) error) error {
	return RunIndexed(workers, n, func(_, i int) error { return fn(i) })
}

// RunIndexed is Run with the executing worker's index passed alongside the
// work index: fn(worker, i) with worker in [0, Clamp(workers, n)). A worker
// index is held by exactly one goroutine at a time, so fn may use it to
// address per-worker scratch buffers (the allocation-free decode path's
// per-worker codeword and evaluation scratch) without synchronization.
func RunIndexed(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Clamp(workers, n)
	if workers == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		errIdx   = n
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					mu.Lock()
					if i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
