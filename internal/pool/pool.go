// Package pool provides the deterministic fork-join worker pool the
// parallel execution engine is built on. The paper's Theorem 1 claims
// throughput λ that scales linearly in N; realizing that on real hardware
// requires fanning the per-node work of a round — coded transition
// computes, command encodes, and the Reed-Solomon decodes — across CPU
// cores without perturbing the simulated protocol. The host sizes the
// fan-out: the worker count is runtime.GOMAXPROCS, read at every call,
// and nothing else sets it.
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

// Workers returns the number of goroutines Run uses for n work items:
// runtime.GOMAXPROCS(0), capped at n (a worker with no work is never
// spawned).
func Workers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// Run executes fn(i) for every i in [0, n) on Workers(n) goroutines. With
// one worker it degenerates to the plain sequential loop.
//
// Every index is attempted even if another index fails, whatever the
// worker count, so fn must be safe to run for all indices and the work
// done (field ops counted inside fn, say) does not depend on GOMAXPROCS;
// the error reported is the one with the lowest index.
func Run(n int, fn func(i int) error) error {
	workers := Workers(n)
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
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
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						firstErr, errIdx = err, i
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
