package pool

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestClamp(t *testing.T) {
	if got := Clamp(4, 100); got != 4 {
		t.Errorf("Clamp(4, 100) = %d", got)
	}
	if got := Clamp(8, 3); got != 3 {
		t.Errorf("Clamp(8, 3) = %d, want 3", got)
	}
	if got := Clamp(0, 100); got != DefaultWorkers() {
		t.Errorf("Clamp(0, 100) = %d, want DefaultWorkers=%d", got, DefaultWorkers())
	}
	if got := Clamp(-1, 100); got != DefaultWorkers() {
		t.Errorf("Clamp(-1, 100) = %d, want DefaultWorkers=%d", got, DefaultWorkers())
	}
	if got := Clamp(5, 0); got != 1 {
		t.Errorf("Clamp(5, 0) = %d, want 1", got)
	}
}

func TestRunCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 1000
			counts := make([]atomic.Int32, n)
			out := make([]int, n)
			err := Run(workers, n, func(i int) error {
				counts[i].Add(1)
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("index %d ran %d times", i, c)
				}
				if out[i] != i*i {
					t.Fatalf("slot %d corrupted: %d", i, out[i])
				}
			}
		})
	}
}

func TestRunEmpty(t *testing.T) {
	if err := Run(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 8} {
		err := Run(workers, 100, func(i int) error {
			switch i {
			case 13:
				return errA
			case 77:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: want lowest-index error %v, got %v", workers, errA, err)
		}
	}
}

// TestRunAttemptsEveryIndexOnError: an error stops no worker count early,
// so the work fn does is the same at one worker as at many.
func TestRunAttemptsEveryIndexOnError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := Run(workers, 10, func(i int) error {
			ran.Add(1)
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: want index 3's error, got %v", workers, err)
		}
		if ran.Load() != 10 {
			t.Fatalf("workers=%d: ran %d calls, want all 10", workers, ran.Load())
		}
	}
}

func TestRunIndexedWorkerOwnership(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 200
		clamped := Clamp(workers, n)
		// Each worker index must stay within [0, clamped) and be usable as a
		// scratch slot: per-worker counters poked without synchronization
		// must add up to exactly n processed items.
		scratch := make([]int, clamped)
		seen := make([]int32, n)
		err := RunIndexed(workers, n, func(worker, i int) error {
			if worker < 0 || worker >= clamped {
				return fmt.Errorf("worker index %d out of range [0,%d)", worker, clamped)
			}
			scratch[worker]++
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total := 0
		for _, c := range scratch {
			total += c
		}
		if total != n {
			t.Fatalf("workers=%d: per-worker scratch counted %d items, want %d", workers, total, n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d: index %d processed %d times", workers, i, c)
			}
		}
	}
}
