package delegate

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"codedsm/internal/field"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/sm"
)

var gold = field.NewGoldilocks()

type fixture struct {
	ring *poly.Ring[uint64]
	code *lcc.Code[uint64]
	tr   *sm.Transition[uint64]
	rng  *rand.Rand
}

func newFixture(t *testing.T, k, n int) *fixture {
	t.Helper()
	ring := poly.NewRing[uint64](gold)
	code, err := lcc.New(ring, k, n)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sm.NewQuadraticTally[uint64](gold)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ring: ring, code: code, tr: tr, rng: rand.New(rand.NewPCG(1, 2))}
}

// simulateRound produces node results for random states/commands, with
// `liars` nodes corrupted.
func (fx *fixture) simulateRound(t *testing.T, liars int) (results [][]uint64, cmds [][]uint64) {
	t.Helper()
	k := fx.code.K()
	states := make([][]uint64, k)
	cmds = make([][]uint64, k)
	for i := 0; i < k; i++ {
		states[i] = field.RandVec[uint64](gold, fx.rng, fx.tr.StateLen())
		cmds[i] = field.RandVec[uint64](gold, fx.rng, fx.tr.CmdLen())
	}
	codedStates, err := fx.code.EncodeVectors(states)
	if err != nil {
		t.Fatal(err)
	}
	codedCmds, err := fx.code.EncodeVectors(cmds)
	if err != nil {
		t.Fatal(err)
	}
	results = make([][]uint64, fx.code.N())
	for i := range results {
		r, err := fx.tr.ApplyResult(codedStates[i], codedCmds[i])
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	for i := 0; i < liars; i++ {
		results[i*2] = field.RandVec[uint64](gold, fx.rng, fx.tr.ResultLen())
	}
	return results, cmds
}

func TestHonestDelegateEncoding(t *testing.T) {
	fx := newFixture(t, 3, 12)
	d := New(fx.ring, fx.code)
	cmds := make([][]uint64, 3)
	for i := range cmds {
		cmds[i] = field.RandVec[uint64](gold, fx.rng, 2)
	}
	coded, err := d.EncodeCommands(cmds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fx.code.EncodeVectors(cmds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !slices.Equal(coded[i], want[i]) {
			t.Fatalf("node %d: fast encode differs from matrix encode", i)
		}
	}
	if err := d.AuditEncoding(cmds, coded); err != nil {
		t.Fatalf("honest encoding rejected: %v", err)
	}
}

func TestCorruptEncodingCaught(t *testing.T) {
	fx := newFixture(t, 3, 12)
	d := New(fx.ring, fx.code)
	cmds := make([][]uint64, 3)
	for i := range cmds {
		cmds[i] = field.RandVec[uint64](gold, fx.rng, 2)
	}
	coded, err := d.EncodeCommands(cmds)
	if err != nil {
		t.Fatal(err)
	}
	coded[0][0] = gold.Add(coded[0][0], gold.One()) // one wrong coded command
	if err := d.AuditEncoding(cmds, coded); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("corrupt encoding not caught: %v", err)
	}
}

func TestDecodeWithProofHonest(t *testing.T) {
	const k, n = 3, 20
	fx := newFixture(t, k, n)
	d := New(fx.ring, fx.code)
	b := lcc.SyncMaxFaults(n, k, fx.tr.Degree())
	results, _ := fx.simulateRound(t, b)
	dec, proof, err := d.DecodeWithProof(results, fx.tr.Degree())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyDecodeProof(results, fx.tr.Degree(), proof, dec.Outputs); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
	if len(dec.FaultyNodes) != b {
		t.Errorf("detected %d faulty nodes, injected %d", len(dec.FaultyNodes), b)
	}
}

func TestCorruptDecodingCaught(t *testing.T) {
	const k, n = 2, 16
	fx := newFixture(t, k, n)
	d := New(fx.ring, fx.code)
	results, _ := fx.simulateRound(t, 0)
	dec, proof, err := d.DecodeWithProof(results, fx.tr.Degree())
	if err != nil {
		t.Fatal(err)
	}
	// Wrong polynomial coefficients.
	proof.Coeffs[0] = fx.ring.Add(proof.Coeffs[0], poly.Poly[uint64]{gold.One()})
	if err := d.VerifyDecodeProof(results, fx.tr.Degree(), proof, dec.Outputs); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("corrupt decoding not caught: %v", err)
	}
}

func TestCorruptOutputsCaught(t *testing.T) {
	const k, n = 2, 16
	fx := newFixture(t, k, n)
	d := New(fx.ring, fx.code)
	results, _ := fx.simulateRound(t, 0)
	dec, proof, err := d.DecodeWithProof(results, fx.tr.Degree())
	if err != nil {
		t.Fatal(err)
	}
	dec.Outputs[0][0] = gold.Add(dec.Outputs[0][0], gold.One()) // one wrong output
	if err := d.VerifyDecodeProof(results, fx.tr.Degree(), proof, dec.Outputs); !errors.Is(err, ErrProofInvalid) {
		t.Fatalf("corrupt outputs not caught: %v", err)
	}
}

func TestProofValidationEdgeCases(t *testing.T) {
	const k, n = 2, 16
	fx := newFixture(t, k, n)
	d := New(fx.ring, fx.code)
	results, _ := fx.simulateRound(t, 0)
	deg := fx.tr.Degree()
	dec, proof, err := d.DecodeWithProof(results, deg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyDecodeProof(results, deg, nil, dec.Outputs); !errors.Is(err, ErrProofInvalid) {
		t.Error("nil proof accepted")
	}
	// Shrunken tau below threshold.
	small := *proof
	small.Tau = make([][]int, len(proof.Tau))
	copy(small.Tau, proof.Tau)
	small.Tau[0] = proof.Tau[0][:2]
	if err := d.VerifyDecodeProof(results, deg, &small, dec.Outputs); !errors.Is(err, ErrProofInvalid) {
		t.Error("undersized tau accepted")
	}
	// Duplicate tau entries to fake the threshold.
	dup := *proof
	dup.Tau = make([][]int, len(proof.Tau))
	copy(dup.Tau, proof.Tau)
	fakeTau := make([]int, len(proof.Tau[0]))
	for i := range fakeTau {
		fakeTau[i] = proof.Tau[0][0]
	}
	dup.Tau[0] = fakeTau
	if err := d.VerifyDecodeProof(results, deg, &dup, dec.Outputs); !errors.Is(err, ErrProofInvalid) {
		t.Error("duplicate tau entries accepted")
	}
	// Tau pointing at a corrupted coordinate.
	resultsBad := make([][]uint64, len(results))
	for i := range results {
		resultsBad[i] = append([]uint64{}, results[i]...)
	}
	resultsBad[proof.Tau[0][0]][0]++
	if err := d.VerifyDecodeProof(resultsBad, deg, proof, dec.Outputs); !errors.Is(err, ErrProofInvalid) {
		t.Error("tau entry disagreeing with received result accepted")
	}
	// Wrong dimension claim.
	wrongDim := *proof
	wrongDim.Dim = proof.Dim + 1
	if err := d.VerifyDecodeProof(results, deg, &wrongDim, dec.Outputs); !errors.Is(err, ErrProofInvalid) {
		t.Error("wrong dimension accepted")
	}
}

func TestDelegateRoundMatchesDecentralized(t *testing.T) {
	// Full delegated round: fast-encode commands, nodes compute, worker
	// decodes with proof, verifier accepts, and the outputs equal the
	// uncoded execution.
	const k, n = 2, 16
	fx := newFixture(t, k, n)
	d := New(fx.ring, fx.code)
	states := make([][]uint64, k)
	cmds := make([][]uint64, k)
	for i := 0; i < k; i++ {
		states[i] = field.RandVec[uint64](gold, fx.rng, 1)
		cmds[i] = field.RandVec[uint64](gold, fx.rng, 1)
	}
	codedStates, err := fx.code.EncodeVectors(states)
	if err != nil {
		t.Fatal(err)
	}
	codedCmds, err := d.EncodeCommands(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AuditEncoding(cmds, codedCmds); err != nil {
		t.Fatal(err)
	}
	results := make([][]uint64, n)
	for i := range results {
		if results[i], err = fx.tr.ApplyResult(codedStates[i], codedCmds[i]); err != nil {
			t.Fatal(err)
		}
	}
	dec, proof, err := d.DecodeWithProof(results, fx.tr.Degree())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyDecodeProof(results, fx.tr.Degree(), proof, dec.Outputs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		want, err := fx.tr.ApplyResult(states[i], cmds[i])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dec.Outputs[i], want) {
			t.Fatalf("machine %d: delegated output differs from direct execution", i)
		}
	}
	// Coded-state refresh matches direct encoding.
	next := make([][]uint64, k)
	for i := range next {
		nextState, _, err := fx.tr.SplitResult(dec.Outputs[i])
		if err != nil {
			t.Fatal(err)
		}
		next[i] = nextState
	}
	updated, err := d.UpdateStates(next)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := fx.code.EncodeVectors(next)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if !slices.Equal(updated[i], direct[i]) {
			t.Fatal("state refresh differs from direct encoding")
		}
	}
}

func TestDelegateInputValidation(t *testing.T) {
	fx := newFixture(t, 2, 8)
	d := New(fx.ring, fx.code)
	if _, _, err := d.DecodeWithProof(make([][]uint64, 3), 2); err == nil {
		t.Error("wrong result count should fail")
	}
	if err := d.AuditEncoding(make([][]uint64, 2), make([][]uint64, 3)); err == nil {
		t.Error("wrong claimed length should fail")
	}
	if err := d.AuditEncoding(make([][]uint64, 1), make([][]uint64, 8)); err == nil {
		t.Error("wrong command count should fail")
	}
}
