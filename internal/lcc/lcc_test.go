package lcc

import (
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/mvpoly"
	"codedsm/internal/poly"
)

func goldRing() *poly.Ring[uint64] { return poly.NewRing[uint64](field.NewGoldilocks()) }

func newTestCode(t *testing.T, k, n int) *Code[uint64] {
	t.Helper()
	c, err := New(goldRing(), k, n)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	ring := goldRing()
	if _, err := New(ring, 0, 5); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := New(ring, 6, 5); err == nil {
		t.Error("N<K should fail")
	}
	// An alpha may equal an omega: node 0 sits at ω_1 = 2, so its
	// coefficient row is e_1 and it encodes machine 1's value as is.
	shared, err := NewWithPoints(ring, []uint64{1, 2}, []uint64{2, 3, 4})
	if err != nil {
		t.Fatalf("alpha equal to an omega: %v", err)
	}
	if row := shared.Coeffs()[0]; !slices.Equal(row, []uint64{0, 1}) {
		t.Errorf("node at ω_1 has coefficient row %v, want e_1 = [0 1]", row)
	}
	if v, err := shared.EncodeAt([]uint64{7, 9}, 0); err != nil || v != 9 {
		t.Errorf("EncodeAt at ω_1 = %d (%v), want machine 1's value 9", v, err)
	}
	if _, err := NewWithPoints(ring, []uint64{1, 1}, []uint64{3, 4, 5}); err == nil {
		t.Error("duplicate omegas should fail")
	}
	if _, err := NewWithPoints(ring, []uint64{1}, []uint64{3, 3}); err == nil {
		t.Error("duplicate alphas should fail")
	}
	c := newTestCode(t, 3, 10)
	if c.K() != 3 || c.N() != 10 || c.StorageEfficiency() != 3 {
		t.Errorf("K=%d N=%d gamma=%d", c.K(), c.N(), c.StorageEfficiency())
	}
}

func TestGF2mFieldTooSmall(t *testing.T) {
	f, err := field.NewGF2m(4) // 16 elements
	if err != nil {
		t.Fatal(err)
	}
	ring := poly.NewRing[uint64](f)
	if _, err := New(ring, 8, 17); err == nil {
		t.Error("N=17 > 16 should fail — Appendix A requires 2^m >= N")
	}
	if _, err := New(ring, 8, 16); err != nil {
		t.Errorf("N=16 should fit exactly (the omegas are the first K alphas): %v", err)
	}
}

func TestCoeffsMatchLagrangeFormula(t *testing.T) {
	// c_ik must equal the direct product formula from equation (7).
	c := newTestCode(t, 4, 9)
	f := field.NewGoldilocks()
	for i := 0; i < c.N(); i++ {
		for k := 0; k < c.K(); k++ {
			want := f.One()
			for l := 0; l < c.K(); l++ {
				if l == k {
					continue
				}
				num := f.Sub(c.Alphas()[i], c.Omegas()[l])
				den := f.Sub(c.Omegas()[k], c.Omegas()[l])
				denInv, err := f.Inv(den)
				if err != nil {
					t.Fatal(err)
				}
				want = f.Mul(want, f.Mul(num, denInv))
			}
			if got := c.Coeffs()[i][k]; got != want {
				t.Fatalf("c[%d][%d] = %d, want %d", i, k, got, want)
			}
		}
	}
}

func TestEncodeAtIsPolynomialEvaluation(t *testing.T) {
	// S̃_i must equal u(α_i) where u interpolates (ω_k, S_k).
	rng := rand.New(rand.NewPCG(1, 2))
	c := newTestCode(t, 5, 12)
	ring := goldRing()
	states := field.RandVec[uint64](ring.Field(), rng, 5)
	u, err := ring.Interpolate(c.Omegas(), states)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.N(); i++ {
		got, err := c.EncodeAt(states, i)
		if err != nil {
			t.Fatal(err)
		}
		if want := ring.Eval(u, c.Alphas()[i]); got != want {
			t.Fatalf("node %d: coded state %d != u(alpha)=%d", i, got, want)
		}
	}
	if _, err := c.EncodeAt(states, -1); err == nil {
		t.Error("negative node index should fail")
	}
	if _, err := c.EncodeAt(states, 12); err == nil {
		t.Error("out-of-range node index should fail")
	}
}

func TestEncodeVectorsFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, tc := range []struct{ k, n, l int }{{1, 3, 1}, {4, 10, 3}, {8, 30, 5}} {
		c := newTestCode(t, tc.k, tc.n)
		values := make([][]uint64, tc.k)
		for i := range values {
			values[i] = field.RandVec[uint64](c.f, rng, tc.l)
		}
		naive, err := c.EncodeVectors(values)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := c.EncodeVectorsFast(values)
		if err != nil {
			t.Fatal(err)
		}
		for i := range naive {
			if !slices.Equal(naive[i], fast[i]) {
				t.Fatalf("k=%d n=%d: node %d fast != naive", tc.k, tc.n, i)
			}
		}
	}
}

func TestEncodeVectorsValidation(t *testing.T) {
	c := newTestCode(t, 2, 5)
	if _, err := c.EncodeVectors([][]uint64{{1}}); err == nil {
		t.Error("wrong K should fail")
	}
	if _, err := c.EncodeVectors([][]uint64{{1, 2}, {3}}); err == nil {
		t.Error("ragged vectors should fail")
	}
}

// applyTransition evaluates a transition polynomial f(s, x) componentwise.
func applyTransition(t *testing.T, f field.Field[uint64], polys []mvpoly.Poly[uint64], s, x []uint64) []uint64 {
	t.Helper()
	args := append(append([]uint64{}, s...), x...)
	out := make([]uint64, len(polys))
	for i, p := range polys {
		v, err := p.Eval(f, args)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func TestCodedExecutionRoundTrip(t *testing.T) {
	// Full Section 5 flow: encode states and commands, run a degree-2
	// polynomial transition on coded data at every node, corrupt up to b
	// results, decode, compare against the uncoded execution.
	gold := field.NewGoldilocks()
	// f(s, x) = (s + x^2, s*x): state and output, both degree <= 2.
	vars := []string{"s", "x"}
	next, err := mvpoly.Parse[uint64](gold, "s + x^2", vars)
	if err != nil {
		t.Fatal(err)
	}
	outp, err := mvpoly.Parse[uint64](gold, "s*x", vars)
	if err != nil {
		t.Fatal(err)
	}
	polys := []mvpoly.Poly[uint64]{next, outp}
	const d = 2

	rng := rand.New(rand.NewPCG(5, 6))
	for _, tc := range []struct{ k, n int }{{2, 10}, {3, 16}, {5, 40}} {
		c := newTestCode(t, tc.k, tc.n)
		b := SyncMaxFaults(tc.n, tc.k, d)
		states := make([][]uint64, tc.k)
		cmds := make([][]uint64, tc.k)
		for i := range states {
			states[i] = field.RandVec[uint64](gold, rng, 1)
			cmds[i] = field.RandVec[uint64](gold, rng, 1)
		}
		codedStates, err := c.EncodeVectors(states)
		if err != nil {
			t.Fatal(err)
		}
		codedCmds, err := c.EncodeVectorsFast(cmds)
		if err != nil {
			t.Fatal(err)
		}
		// Every node computes f on its coded data.
		results := make([][]uint64, tc.n)
		for i := 0; i < tc.n; i++ {
			results[i] = applyTransition(t, gold, polys, codedStates[i], codedCmds[i])
		}
		// Corrupt b nodes.
		corrupted := rng.Perm(tc.n)[:b]
		for _, i := range corrupted {
			results[i] = field.RandVec[uint64](gold, rng, len(results[i]))
		}
		dec, err := c.DecodeOutputs(results, d)
		if err != nil {
			t.Fatalf("k=%d n=%d b=%d: %v", tc.k, tc.n, b, err)
		}
		for k := 0; k < tc.k; k++ {
			want := applyTransition(t, gold, polys, states[k], cmds[k])
			if !slices.Equal(dec.Outputs[k], want) {
				t.Fatalf("k=%d n=%d: machine %d decoded %v, want %v", tc.k, tc.n, k, dec.Outputs[k], want)
			}
		}
		if len(dec.FaultyNodes) > b {
			t.Fatalf("identified %d faulty nodes, injected %d", len(dec.FaultyNodes), b)
		}
	}
}

func TestDecodeOutputsSubset(t *testing.T) {
	// Partially synchronous: b nodes silent, b of the received wrong.
	gold := field.NewGoldilocks()
	rng := rand.New(rand.NewPCG(7, 8))
	const k, d = 2, 1
	n := 16
	b := PSyncMaxFaults(n, k, d) // 3b <= N - d(K-1) - 1 = 14 -> b = 4
	c := newTestCode(t, k, n)
	states := [][]uint64{field.RandVec[uint64](gold, rng, 1), field.RandVec[uint64](gold, rng, 1)}
	coded, err := c.EncodeVectors(states)
	if err != nil {
		t.Fatal(err)
	}
	// Identity "transition": results are the coded states themselves (d=1).
	present := rng.Perm(n)[: n-b : n-b]
	results := make([][]uint64, len(present))
	for i, idx := range present {
		results[i] = append([]uint64{}, coded[idx]...)
	}
	for i := 0; i < b; i++ {
		results[i] = field.RandVec[uint64](gold, rng, 1)
	}
	dec, err := c.DecodeOutputsSubset(present, results, d)
	if err != nil {
		t.Fatal(err)
	}
	for ki := 0; ki < k; ki++ {
		if !slices.Equal(dec.Outputs[ki], states[ki]) {
			t.Fatalf("machine %d: got %v want %v", ki, dec.Outputs[ki], states[ki])
		}
	}
	if _, err := c.DecodeOutputsSubset(nil, results, d); err == nil {
		t.Error("nil indices should fail")
	}
}

func TestDecodeBeyondBoundFails(t *testing.T) {
	gold := field.NewGoldilocks()
	rng := rand.New(rand.NewPCG(9, 10))
	const k, n, d = 3, 10, 1
	c := newTestCode(t, k, n)
	b := SyncMaxFaults(n, k, d)
	states := make([][]uint64, k)
	for i := range states {
		states[i] = field.RandVec[uint64](gold, rng, 1)
	}
	coded, err := c.EncodeVectors(states)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rng.Perm(n)[:b+1] {
		coded[i] = field.RandVec[uint64](gold, rng, 1)
	}
	if dec, err := c.DecodeOutputs(coded, d); err == nil {
		// A silent miscorrection is possible in principle; it must at
		// least differ from the truth.
		same := true
		for ki := range states {
			if !slices.Equal(dec.Outputs[ki], states[ki]) {
				same = false
			}
		}
		if same {
			t.Fatal("decoded correctly with b+1 corruptions")
		}
	}
}

func TestBoundHelpers(t *testing.T) {
	cases := []struct {
		n, b, d int
		sync    int
		psync   int
	}{
		{31, 5, 1, 21, 16},
		{31, 5, 2, 11, 8},
		{31, 5, 3, 7, 6},
		{10, 5, 1, 0, 0},
		{10, 0, 1, 10, 10},
		{12, 2, 0, 8, 6}, // d<1 clamps to 1
	}
	for _, tc := range cases {
		if got := SyncMaxMachines(tc.n, tc.b, tc.d); got != tc.sync {
			t.Errorf("SyncMaxMachines(%d,%d,%d) = %d, want %d", tc.n, tc.b, tc.d, got, tc.sync)
		}
		if got := PSyncMaxMachines(tc.n, tc.b, tc.d); got != tc.psync {
			t.Errorf("PSyncMaxMachines(%d,%d,%d) = %d, want %d", tc.n, tc.b, tc.d, got, tc.psync)
		}
	}
	// Fault bounds are inverse to machine bounds: with K = SyncMaxMachines,
	// at least b faults are tolerated.
	for n := 5; n <= 40; n += 7 {
		for d := 1; d <= 3; d++ {
			for b := 0; b*2 < n; b++ {
				k := SyncMaxMachines(n, b, d)
				if k < 1 {
					continue
				}
				if got := SyncMaxFaults(n, k, d); got < b {
					t.Errorf("SyncMaxFaults(%d,%d,%d) = %d < b=%d", n, k, d, got, b)
				}
			}
		}
	}
	if SyncMaxFaults(3, 10, 1) != 0 || PSyncMaxFaults(3, 10, 1) != 0 {
		t.Error("negative fault bounds must clamp to 0")
	}
}

func TestResultDim(t *testing.T) {
	c := newTestCode(t, 5, 20)
	if got := c.ResultDim(2); got != 9 {
		t.Errorf("ResultDim(2) = %d, want 9", got)
	}
	if got := c.ResultDim(0); got != 5 {
		t.Errorf("ResultDim(0) = %d, want clamp to d=1: 5", got)
	}
}

func TestStateUpdatePreservesCoding(t *testing.T) {
	// Remark 4 / equation at end of Section 5.2: after decoding, node i
	// updates S̃_i(t+1) = Σ_k c_ik Ŝ_k(t+1); re-encoding decoded states must
	// equal direct encoding of the true next states.
	gold := field.NewGoldilocks()
	rng := rand.New(rand.NewPCG(11, 12))
	c := newTestCode(t, 3, 9)
	next := make([][]uint64, 3)
	for i := range next {
		next[i] = field.RandVec[uint64](gold, rng, 2)
	}
	enc1, err := c.EncodeVectors(next)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := c.EncodeVectorsFast(next)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc1 {
		if !slices.Equal(enc1[i], enc2[i]) {
			t.Fatal("state update differs between naive and fast encoders")
		}
	}
}
