package sm

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/mvpoly"
)

var gold = field.NewGoldilocks()

func TestNewTransitionValidation(t *testing.T) {
	p, err := mvpoly.Parse[uint64](gold, "s + x", []string{"s", "x"})
	if err != nil {
		t.Fatal(err)
	}
	ok := []mvpoly.Poly[uint64]{p}
	if _, err := NewTransition[uint64](gold, "t", 0, 1, nil, ok); err == nil {
		t.Error("stateLen 0 should fail")
	}
	if _, err := NewTransition[uint64](gold, "t", 1, 0, ok, ok); err == nil {
		t.Error("cmdLen 0 should fail")
	}
	if _, err := NewTransition[uint64](gold, "t", 2, 1, ok, ok); err == nil {
		t.Error("wrong next-state count should fail")
	}
	if _, err := NewTransition[uint64](gold, "t", 1, 1, ok, nil); err == nil {
		t.Error("no outputs should fail")
	}
	bad := mvpoly.Zero[uint64](3)
	if _, err := NewTransition[uint64](gold, "t", 1, 1, ok, []mvpoly.Poly[uint64]{bad}); err == nil {
		t.Error("wrong nvars should fail")
	}
	tr, err := NewTransition[uint64](gold, "t", 1, 1, ok, ok)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "t" || tr.StateLen() != 1 || tr.CmdLen() != 1 || tr.OutLen() != 1 ||
		tr.ResultLen() != 2 || tr.Degree() != 1 {
		t.Errorf("accessors wrong: %+v", tr)
	}
}

func TestBankMachine(t *testing.T) {
	tr, err := NewBank[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 1 {
		t.Errorf("bank degree = %d, want 1", tr.Degree())
	}
	m, err := NewMachine(tr, []uint64{100})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Step([]uint64{50})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 150 || m.State()[0] != 150 {
		t.Errorf("after deposit 50: out=%v state=%v", out, m.State())
	}
	// Withdrawal = additive inverse.
	if _, err := m.Step([]uint64{gold.Neg(30)}); err != nil {
		t.Fatal(err)
	}
	if m.State()[0] != 120 {
		t.Errorf("after withdrawal 30: state=%v", m.State())
	}
	if m.Round() != 2 {
		t.Errorf("round = %d", m.Round())
	}
}

func TestMachineLibraryDegrees(t *testing.T) {
	quad, err := NewQuadraticTally[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	if quad.Degree() != 2 {
		t.Errorf("quadratic tally degree = %d", quad.Degree())
	}
	mul, err := NewMultiplicativeAccumulator[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	if mul.Degree() != 2 {
		t.Errorf("mul accumulator degree = %d", mul.Degree())
	}
	for d := 1; d <= 5; d++ {
		pr, err := NewPolynomialRegister[uint64](gold, d)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Degree() != d {
			t.Errorf("poly register d=%d has degree %d", d, pr.Degree())
		}
	}
	if _, err := NewPolynomialRegister[uint64](gold, 0); err == nil {
		t.Error("degree 0 should fail")
	}
}

func TestQuadraticTallySemantics(t *testing.T) {
	tr, err := NewQuadraticTally[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(tr, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 3} {
		if _, err := m.Step([]uint64{v}); err != nil {
			t.Fatal(err)
		}
	}
	if m.State()[0] != 1+4+9 {
		t.Errorf("tally = %d, want 14", m.State()[0])
	}
}

func TestAffineMachine(t *testing.T) {
	// S' = [[1,1],[0,2]] S + [[1],[0]] X.
	a := [][]uint64{{1, 1}, {0, 2}}
	b := [][]uint64{{1}, {0}}
	tr, err := NewAffine[uint64](gold, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 1 || tr.StateLen() != 2 || tr.CmdLen() != 1 {
		t.Fatalf("affine dims wrong: d=%d", tr.Degree())
	}
	next, out, err := tr.Apply([]uint64{3, 4}, []uint64{10})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{3 + 4 + 10, 8}
	if next[0] != want[0] || next[1] != want[1] {
		t.Errorf("next = %v, want %v", next, want)
	}
	if out[0] != want[0] || out[1] != want[1] {
		t.Errorf("out = %v, want %v", out, want)
	}
	if _, err := NewAffine[uint64](gold, nil, nil); err == nil {
		t.Error("empty A should fail")
	}
	if _, err := NewAffine[uint64](gold, a, [][]uint64{{1}}); err == nil {
		t.Error("B row count mismatch should fail")
	}
	if _, err := NewAffine[uint64](gold, [][]uint64{{1, 1}, {0}}, b); err == nil {
		t.Error("ragged A should fail")
	}
}

func TestInnerProductMachine(t *testing.T) {
	tr, err := NewInnerProduct[uint64](gold, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Degree() != 2 {
		t.Errorf("degree = %d", tr.Degree())
	}
	s := []uint64{1, 2, 3}
	x := []uint64{10, 20, 30}
	next, out, err := tr.Apply(s, x)
	if err != nil {
		t.Fatal(err)
	}
	wantNext := []uint64{11, 22, 33}
	for i := range wantNext {
		if next[i] != wantNext[i] {
			t.Errorf("next = %v", next)
			break
		}
	}
	if want := uint64(11*10 + 22*20 + 33*30); out[0] != want {
		t.Errorf("out = %d, want %d", out[0], want)
	}
	if _, err := NewInnerProduct[uint64](gold, 0); err == nil {
		t.Error("dim 0 should fail")
	}
}

func TestApplyDimensionErrors(t *testing.T) {
	tr, err := NewBank[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Apply([]uint64{1, 2}, []uint64{1}); !errors.Is(err, ErrDimension) {
		t.Error("bad state length should fail")
	}
	if _, _, err := tr.Apply([]uint64{1}, []uint64{}); !errors.Is(err, ErrDimension) {
		t.Error("bad command length should fail")
	}
	if _, err := NewMachine(tr, []uint64{1, 2}); !errors.Is(err, ErrDimension) {
		t.Error("bad initial state should fail")
	}
	if _, _, err := tr.SplitResult([]uint64{1}); !errors.Is(err, ErrDimension) {
		t.Error("bad result length should fail")
	}
}

func TestApplyResultAndSplit(t *testing.T) {
	tr, err := NewBank[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.ApplyResult([]uint64{5}, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != 12 || res[1] != 12 {
		t.Errorf("result = %v", res)
	}
	next, out, err := tr.SplitResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if next[0] != 12 || out[0] != 12 {
		t.Errorf("split = %v, %v", next, out)
	}
}

// TestApplyResultIntoMatchesApplyResult: the scratch entry point writes
// ApplyResult's vector, allocates nothing, may write over its own state,
// and refuses buffers of the wrong length.
func TestApplyResultIntoMatchesApplyResult(t *testing.T) {
	tr, err := NewInnerProduct[uint64](gold, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	state, cmd := field.RandVec[uint64](gold, rng, 3), field.RandVec[uint64](gold, rng, 3)
	want, err := tr.ApplyResult(state, cmd)
	if err != nil {
		t.Fatal(err)
	}
	dst, args := make([]uint64, tr.ResultLen()), make([]uint64, tr.StateLen()+tr.CmdLen())
	if allocs := testing.AllocsPerRun(10, func() {
		if err := tr.ApplyResultInto(dst, args, state, cmd); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ApplyResultInto allocated %.0f times per call, want 0", allocs)
	}
	if !slices.Equal(dst, want) {
		t.Fatalf("ApplyResultInto wrote %v, ApplyResult returned %v", dst, want)
	}
	// In place: the state is the head of the result buffer.
	inPlace := append(append([]uint64(nil), state...), make([]uint64, tr.OutLen())...)
	if err := tr.ApplyResultInto(inPlace, args, inPlace[:tr.StateLen()], cmd); err != nil || !slices.Equal(inPlace, want) {
		t.Fatalf("in place: %v, err %v; want %v", inPlace, err, want)
	}
	if err := tr.ApplyResultInto(dst[1:], args, state, cmd); !errors.Is(err, ErrDimension) {
		t.Errorf("short result buffer: err %v, want ErrDimension", err)
	}
	if err := tr.ApplyResultInto(dst, args[1:], state, cmd); !errors.Is(err, ErrDimension) {
		t.Errorf("short argument buffer: err %v, want ErrDimension", err)
	}
}

func TestFromExprsErrors(t *testing.T) {
	if _, err := FromExprs[uint64](gold, "t", []string{"s"}, []string{"x"},
		[]string{"s + y"}, []string{"s"}); err == nil {
		t.Error("unknown variable should fail")
	}
	if _, err := FromExprs[uint64](gold, "t", []string{"s"}, []string{"x"},
		[]string{"s"}, []string{"x +"}); err == nil {
		t.Error("syntax error should fail")
	}
}

func TestMachineIsolation(t *testing.T) {
	tr, err := NewBank[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	initial := []uint64{10}
	m, err := NewMachine(tr, initial)
	if err != nil {
		t.Fatal(err)
	}
	initial[0] = 999
	if m.State()[0] != 10 {
		t.Error("machine aliases caller's initial state")
	}
	st := m.State()
	st[0] = 777
	if m.State()[0] != 10 {
		t.Error("State() exposes internal slice")
	}
}

func TestTransitionOnCodedDataProperty(t *testing.T) {
	// The defining CSM property: for polynomial f and Lagrange-coded
	// inputs, f(coded) at alpha equals h(alpha) where h interpolates the
	// uncoded results. Spot-check via linearity for d=1 machines:
	// f(sum c_k s_k, sum c_k x_k) with sum c_k = 1 equals sum c_k f(s_k, x_k).
	tr, err := NewBank[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		// Random coefficients summing to one.
		c1 := gold.Rand(rng)
		c2 := gold.Sub(gold.One(), c1)
		s1, s2 := gold.Rand(rng), gold.Rand(rng)
		x1, x2 := gold.Rand(rng), gold.Rand(rng)
		codedS := gold.Add(gold.Mul(c1, s1), gold.Mul(c2, s2))
		codedX := gold.Add(gold.Mul(c1, x1), gold.Mul(c2, x2))
		got, err := tr.ApplyResult([]uint64{codedS}, []uint64{codedX})
		if err != nil {
			t.Fatal(err)
		}
		r1, err := tr.ApplyResult([]uint64{s1}, []uint64{x1})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := tr.ApplyResult([]uint64{s2}, []uint64{x2})
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			want := gold.Add(gold.Mul(c1, r1[j]), gold.Mul(c2, r2[j]))
			if got[j] != want {
				t.Fatal("linear transition does not commute with coding")
			}
		}
	}
}
