package main

import "testing"

// TestAllExperimentsRun executes every experiment end to end (small round
// counts); this is the regression net for the paper-reproduction harness.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	// One round is fast; the default flags reach the later rounds where a
	// seed can put a lying delegated worker on an undecodable word.
	for _, args := range [][]string{{"-all", "-rounds", "1"}, {"-all"}} {
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
}

func TestSingleFlags(t *testing.T) {
	for _, flag := range []string{"-fig3", "-fig5"} {
		if err := run([]string{flag}); err != nil {
			t.Errorf("%s: %v", flag, err)
		}
	}
}

func TestBadTable1N(t *testing.T) {
	if err := run([]string{"-table1", "-n", "25"}); err == nil {
		t.Error("non-divisible N should fail with advice")
	}
}
