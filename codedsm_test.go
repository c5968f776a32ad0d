package codedsm

import (
	"context"
	"errors"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"codedsm/internal/lcc"
	"codedsm/internal/metrics"
	"codedsm/internal/replication"
	"codedsm/internal/sm"
)

// TestPublicAPIEndToEnd exercises the facade the way a downstream user
// would: build a cluster from the library's machine constructors, run a
// workload under faults, and cross-check with the baselines.
func TestPublicAPIEndToEnd(t *testing.T) {
	gold := NewGoldilocks()
	cluster, err := Open(gold, NewBank[uint64],
		WithMachines(3), WithNodes(12), WithFaults(2),
		WithByzantine(map[int]Behavior{4: WrongResult, 9: SilentNode}),
		WithInitialStates([][]uint64{{100}, {200}, {300}}),
		WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 3, 3, 1, 2)
	for r, cmds := range wl {
		res, err := cluster.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
	}
	if cluster.OpCounts().Total() == 0 {
		t.Error("no throughput accounting")
	}
}

func TestPublicAPICustomMachine(t *testing.T) {
	gold := NewGoldilocks()
	tr, err := FromExprs[uint64](gold, "amm-ish",
		[]string{"r0", "r1"}, []string{"dx"},
		[]string{"r0 + dx", "r1 + 2*dx"},
		[]string{"r0*r1 + dx^2"})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 2 || tr.StateLen() != 2 {
		t.Fatalf("degree=%d stateLen=%d", tr.Degree(), tr.StateLen())
	}
	m, err := NewMachine(tr, []uint64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Step([]uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	// Output is f(S(t), X(t)) — evaluated on the *current* state (3, 4).
	if out[0] != 3*4+1 {
		t.Errorf("out = %v", out)
	}
	if st := m.State(); st[0] != 4 || st[1] != 6 {
		t.Errorf("next state = %v", st)
	}
}

func TestPublicAPIBooleanOverGF2m(t *testing.T) {
	f, err := NewGF2m(16)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := Open(f,
		func(ff Field[uint64]) (*Transition[uint64], error) {
			return NewBooleanMachine(ff, "xor", 1, 1, 1,
				func(s, c uint64) (uint64, uint64) { return (s ^ c) & 1, s & c & 1 })
		},
		WithMachines(2), WithNodes(8), WithFaults(1),
		WithByzantine(map[int]Behavior{3: WrongResult}),
		WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	cmds := [][]uint64{PackBits(f, 1, 1), PackBits(f, 0, 1)}
	res, err := cluster.ExecuteRound(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatal("Boolean cluster incorrect")
	}
	bit, err := UnpackBits(f, res.Outputs[0])
	if err != nil {
		t.Fatal(err)
	}
	_ = bit
}

// TestPublicAPIOpenAndSubmit exercises the options constructor and the
// Submit-based ingress through the facade, including the typed-error
// taxonomy a downstream service is expected to program against.
func TestPublicAPIOpenAndSubmit(t *testing.T) {
	gold := NewGoldilocks()
	cluster, err := Open(gold, NewBank[uint64],
		WithNodes(12), WithMachines(3), WithFaults(2),
		WithByzantine(map[int]Behavior{4: WrongResult, 9: SilentNode}),
		WithInitialStates([][]uint64{{100}, {200}, {300}}),
		WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	client, err := cluster.Open(WithDeterministicAdmission(), WithSubmitQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var futs []*Future[uint64]
	for k := 0; k < 3; k++ {
		fut, err := client.Submit(ctx, k, []uint64{uint64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	for k, fut := range futs {
		out, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("machine %d: %v", k, err)
		}
		if want := uint64(100*(k+1) + k + 1); out[0] != want {
			t.Fatalf("machine %d output %d, want %d", k, out[0], want)
		}
	}
	if _, err := client.Submit(ctx, 0, []uint64{1}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	// The typed construction errors surface through the facade.
	if _, err := Open(gold, NewBank[uint64], WithNodes(6), WithMachines(2), WithFaults(1),
		WithByzantine(map[int]Behavior{0: WrongResult, 1: WrongResult})); !errors.Is(err, ErrFaultBudgetExceeded) {
		t.Fatalf("budget error %v, want ErrFaultBudgetExceeded", err)
	}
	// And mid-workload failures carry a BatchError.
	bad := RandomWorkload[uint64](gold, 2, 3, 1, 3)
	bad[1] = bad[1][:1]
	_, err = cluster.Run(bad)
	var batchErr *BatchError[uint64]
	if !errors.As(err, &batchErr) || batchErr.Round != 1 || len(batchErr.Completed) != 1 {
		t.Fatalf("run error %v, want BatchError at round 1 with 1 completed", err)
	}
}

func TestPublicAPIBaselinesAndExperiments(t *testing.T) {
	gold := NewGoldilocks()
	full, err := replication.OpenFull(gold, NewBank[uint64],
		WithReplNodes(6), WithReplMachines(2), WithReplSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if full.Security() != 2 {
		t.Errorf("full security %d", full.Security())
	}
	attack, err := ConcentratedAttack(6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(attack) != 2 {
		t.Errorf("attack size %d", len(attack))
	}
	rows, err := metrics.Table2(15, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("threshold mismatch: %+v", r)
		}
	}
	if !strings.Contains(metrics.RenderTable2(rows), "decoding") {
		t.Error("render")
	}
	if SyncMaxMachines(31, 5, 2) != 11 {
		t.Error("capacity helper")
	}
	if lcc.PSyncMaxFaults(31, 11, 2) < 0 {
		t.Error("psync helper")
	}
}

func TestPublicAPIIntermix(t *testing.T) {
	gold := NewGoldilocks()
	a := [][]uint64{{1, 2}, {3, 4}, {5, 6}}
	x := []uint64{7, 8}
	out, err := RunIntermix(IntermixSession[uint64]{
		F: gold, A: a, X: x, NetworkSize: 6,
		Mu: 0.3, Epsilon: 0.05, Seed: 1,
		WorkerStrategy: NaiveLiar, CorruptRow: 1, CorruptCol: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Error("liar accepted")
	}
	j, err := CommitteeSize(0.05, 0.3)
	if err != nil || j < 1 {
		t.Errorf("J=%d err=%v", j, err)
	}
}

func TestPublicAPIPartiallySynchronousPBFT(t *testing.T) {
	gold := NewGoldilocks()
	cluster, err := Open(gold, sm.NewQuadraticTally[uint64],
		WithMachines(2), WithNodes(13), WithFaults(3),
		WithPartialSync(0),
		WithConsensus(PBFT),
		WithByzantine(map[int]Behavior{6: WrongResult}),
		WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 2, 2, 1, 4)
	for r, cmds := range wl {
		res, err := cluster.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("round %d incorrect", r)
		}
	}
}

func TestPublicAPIDelegatedMode(t *testing.T) {
	gold := NewGoldilocks()
	cluster, err := Open(gold, NewBank[uint64],
		WithMachines(3), WithNodes(12), WithFaults(2),
		WithDelegated(),
		WithByzantine(map[int]Behavior{4: WrongResult}),
		WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 2, 3, 1, 22)
	for r, cmds := range wl {
		res, err := cluster.ExecuteRound(cmds)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("delegated round %d incorrect", r)
		}
	}
	// Repair is part of the public surface too.
	if err := cluster.RepairNode(7); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Run(RandomWorkload[uint64](gold, 1, 3, 1, 23)); err != nil {
		t.Fatal(err)
	}
}

// parseGoFiles parses the Go files under dir in lexical order, with
// their comments, skipping testdata and hidden directories, and the
// _test.go files unless tests.
func parseGoFiles(t *testing.T, fset *token.FileSet, dir string, tests bool) []*ast.File {
	t.Helper()
	var files []*ast.File
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// importName returns the name file f refers to the package at path by,
// or "" when f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// calledName returns the function a call names, unwrapping generic
// instantiation: pkg.F(...), pkg.F[T](...) and F(...) give ("pkg" or "",
// "F"); anything else gives ("", "").
func calledName(call *ast.CallExpr) (qual, name string) {
	fun := call.Fun
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	switch x := fun.(type) {
	case *ast.Ident:
		return "", x.Name
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name, x.Sel.Name
		}
	}
	return "", ""
}

// TestRootSurface holds the public surface to what programs use. Every
// exported root name must be named as codedsm.X by a program (the
// non-test files of cmd/, examples/ and internal/procharness, plus
// example_test.go), or be referred to by the declaration of a name that
// is (a kept function's parameter or result type); the sentinel errors
// are exempt, since kept functions wrap them and callers match them with
// errors.Is. Every exported option constructor of csm, shard and
// replication must be called from some file other than its own
// definition.
func TestRootSurface(t *testing.T) {
	fset := token.NewFileSet()

	t.Run("root names are named by programs", func(t *testing.T) {
		root, err := parser.ParseFile(fset, "codedsm.go", nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		// decls maps each exported name to the declaration that defines
		// it, so the surface can follow what a kept declaration refers to.
		decls := map[string]ast.Node{}
		for _, decl := range root.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[d.Name.Name] = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[s.Name.Name] = s
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && !(d.Tok == token.VAR && strings.HasPrefix(n.Name, "Err")) {
								decls[n.Name] = s
							}
						}
					}
				}
			}
		}
		var programs []*ast.File
		for _, dir := range []string{"cmd", "examples", filepath.Join("internal", "procharness")} {
			programs = append(programs, parseGoFiles(t, fset, dir, false)...)
		}
		programs = append(programs, parseGoFiles(t, fset, "example_test.go", true)...)
		named := map[string]bool{}
		var work []string
		for _, f := range programs {
			local := importName(f, "codedsm")
			if local == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local && !named[sel.Sel.Name] {
						named[sel.Sel.Name] = true
						work = append(work, sel.Sel.Name)
					}
				}
				return true
			})
		}
		// A name a kept declaration refers to is kept with it, to a
		// fixpoint.
		for len(work) > 0 {
			decl := decls[work[len(work)-1]]
			work = work[:len(work)-1]
			if decl == nil {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && decls[id.Name] != nil && !named[id.Name] {
					named[id.Name] = true
					work = append(work, id.Name)
				}
				return true
			})
		}
		var unused []string
		for name := range decls {
			if !named[name] {
				unused = append(unused, name)
			}
		}
		sort.Strings(unused)
		for _, name := range unused {
			t.Errorf("codedsm.%s is named by no program: delete it", name)
		}
	})

	t.Run("option constructors are called", func(t *testing.T) {
		optionTypes := map[string]bool{"Option": true, "ClientOption": true}
		optionDirs := map[string]bool{
			filepath.Join("internal", "csm"):         true,
			filepath.Join("internal", "shard"):       true,
			filepath.Join("internal", "replication"): true,
		}
		path := func(f *ast.File) string { return fset.File(f.Pos()).Name() }
		all := parseGoFiles(t, fset, ".", true)
		for _, def := range all {
			dir := filepath.Dir(path(def))
			if !optionDirs[dir] || strings.HasSuffix(path(def), "_test.go") {
				continue
			}
			pkg := "codedsm/" + filepath.ToSlash(dir)
			for _, decl := range def.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
					continue
				}
				if res, ok := fd.Type.Results.List[0].Type.(*ast.Ident); !ok || !optionTypes[res.Name] {
					continue
				}
				called := false
				for _, f := range all {
					if f == def {
						continue
					}
					// A call is unqualified inside the package's own
					// directory and qualified by the import name elsewhere.
					quals := map[string]bool{}
					if filepath.Dir(path(f)) == dir {
						quals[""] = true
					}
					if local := importName(f, pkg); local != "" {
						quals[local] = true
					}
					ast.Inspect(f, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							if qual, name := calledName(call); quals[qual] && name == fd.Name.Name {
								called = true
							}
						}
						return !called
					})
					if called {
						break
					}
				}
				if !called {
					t.Errorf("%s.%s (%s) is called from no other file: delete it and its settings", pkg, fd.Name.Name, path(def))
				}
			}
		}
	})
}

// TestExamplesHaveGoldenOutput keeps every single-process example under
// a golden check: each examples/* package that does not drive csmnode
// processes (those import internal/procharness) must have an Example
// with a non-empty // Output: block, so go test fails when the program
// prints anything else.
func TestExamplesHaveGoldenOutput(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no examples found")
	}
	for _, dir := range dirs {
		files := parseGoFiles(t, token.NewFileSet(), dir, true)
		if slices.ContainsFunc(files, func(f *ast.File) bool {
			return importName(f, "codedsm/internal/procharness") != ""
		}) {
			continue
		}
		if !slices.ContainsFunc(doc.Examples(files...), func(ex *doc.Example) bool { return ex.Output != "" }) {
			t.Errorf("%s has no Example with an // Output: block: add a main_test.go whose Example runs main and pins its stdout", dir)
		}
	}
}
