package consensus

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"codedsm/internal/transport"
)

// stuck never decides; decided decides immediately.
type stuck struct{}

func (stuck) Tick(inbox []transport.Message) error { return nil }
func (stuck) Decided() ([]byte, bool)              { return nil, false }

type decided struct{}

func (decided) Tick(inbox []transport.Message) error { return nil }
func (decided) Decided() ([]byte, bool)              { return []byte("v"), true }

// TestNoDecisionErrorReportsUndecided: when the round budget runs out,
// the error must name exactly the waitFor nodes that had not decided —
// not the ones that had.
func TestNoDecisionErrorReportsUndecided(t *testing.T) {
	net, err := transport.New(transport.Config{N: 3, Mode: transport.Sync, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nodes := []Node{decided{}, stuck{}, stuck{}}
	runErr := Run(net, nodes, []int{0, 1, 2}, 3)
	if !errors.Is(runErr, ErrNoDecision) {
		t.Fatalf("Run = %v, want ErrNoDecision", runErr)
	}
	var nde *NoDecisionError
	if !errors.As(runErr, &nde) {
		t.Fatalf("Run error %T does not unwrap to *NoDecisionError", runErr)
	}
	want := []transport.NodeID{1, 2}
	if !slices.Equal(nde.Undecided, want) {
		t.Fatalf("Undecided = %v, want %v", nde.Undecided, want)
	}
}

// TestRunLinkNoDecision: the per-link driver reports its own node as
// undecided when the tick budget runs out.
func TestRunLinkNoDecision(t *testing.T) {
	net, err := transport.New(transport.Config{N: 2, Mode: transport.Sync, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l transport.Link) {
			defer wg.Done()
			_, errs[i] = RunLink(l, stuck{}, 4)
		}(i, l)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrNoDecision) {
			t.Fatalf("node %d: RunLink = %v, want ErrNoDecision", i, err)
		}
		var nde *NoDecisionError
		if !errors.As(err, &nde) {
			t.Fatalf("node %d: %T does not unwrap to *NoDecisionError", i, err)
		}
		if want := []transport.NodeID{transport.NodeID(i)}; !slices.Equal(nde.Undecided, want) {
			t.Fatalf("node %d: Undecided = %v, want %v", i, nde.Undecided, want)
		}
	}
}

// TestRunLinkDecides: a node that decides stops the driver with the
// decided value, before the budget is spent.
func TestRunLinkDecides(t *testing.T) {
	net, err := transport.New(transport.Config{N: 2, Mode: transport.Sync, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	links, err := transport.NewLocalLinks(net)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([][]byte, len(links))
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for i, l := range links {
		wg.Add(1)
		go func(i int, l transport.Link) {
			defer wg.Done()
			vals[i], errs[i] = RunLink(l, decided{}, 4)
		}(i, l)
	}
	wg.Wait()
	for i := range links {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		if string(vals[i]) != "v" {
			t.Fatalf("node %d decided %q, want v", i, vals[i])
		}
	}
}

// thirdTick decides on its third tick.
type thirdTick struct{ ticks int }

func (n *thirdTick) Tick(inbox []transport.Message) error { n.ticks++; return nil }
func (n *thirdTick) Decided() ([]byte, bool)              { return []byte("v"), n.ticks == 3 }

// TestDriveLinkHook: the hook runs after every tick — the deciding one
// included — on the inbox that tick consumed, and what it broadcasts
// leaves with that tick's Step; the deciding tick does not step. A hook
// error ends the instance with that error.
func TestDriveLinkHook(t *testing.T) {
	errHook := errors.New("hook failed")
	for _, failAt := range []int{-1, 1} {
		net, err := transport.New(transport.Config{N: 2, Mode: transport.Sync, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		links, err := transport.NewLocalLinks(net)
		if err != nil {
			t.Fatal(err)
		}
		inboxes := make([][]int, len(links))
		errs := make([]error, len(links))
		var wg sync.WaitGroup
		for i, l := range links {
			wg.Add(1)
			go func(i int, l transport.Link) {
				defer wg.Done()
				_, errs[i] = DriveLink(l, &thirdTick{}, 4, func(inbox []transport.Message) error {
					if len(inboxes[i]) == failAt {
						return errHook
					}
					inboxes[i] = append(inboxes[i], len(inbox))
					return l.Broadcast("hook", nil)
				})
			}(i, l)
		}
		wg.Wait()
		for i := range links {
			if failAt >= 0 {
				if !errors.Is(errs[i], errHook) {
					t.Errorf("node %d: err %v, want the hook's", i, errs[i])
				}
				continue
			}
			if errs[i] != nil || !slices.Equal(inboxes[i], []int{0, 1, 1}) {
				t.Errorf("node %d: err %v, hook saw inboxes of %v messages; want nil, [0 1 1]", i, errs[i], inboxes[i])
			}
		}
		if failAt < 0 && net.Round() != 2 {
			t.Errorf("the instance stepped %d times, want 2", net.Round())
		}
	}
}
