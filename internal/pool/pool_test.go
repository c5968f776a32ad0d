package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test, the one control
// over Run's worker count, and restores it in Cleanup.
func setGOMAXPROCS(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkers(t *testing.T) {
	setGOMAXPROCS(t, 4)
	if got := Workers(100); got != 4 {
		t.Errorf("Workers(100) = %d at GOMAXPROCS 4", got)
	}
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d at GOMAXPROCS 4, want 3", got)
	}
	runtime.GOMAXPROCS(2) // read at call time
	if got := Workers(100); got != 2 {
		t.Errorf("Workers(100) = %d at GOMAXPROCS 2", got)
	}
}

func TestRunCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			setGOMAXPROCS(t, workers)
			const n = 1000
			counts := make([]atomic.Int32, n)
			out := make([]int, n)
			err := Run(n, func(i int) error {
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
	if err := Run(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunReportsLowestIndexError(t *testing.T) {
	setGOMAXPROCS(t, 1)
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 8} {
		runtime.GOMAXPROCS(workers)
		err := Run(100, func(i int) error {
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
	setGOMAXPROCS(t, 1)
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 8} {
		runtime.GOMAXPROCS(workers)
		var ran atomic.Int32
		err := Run(10, func(i int) error {
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
