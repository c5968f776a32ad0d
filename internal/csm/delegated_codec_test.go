package csm

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"codedsm/internal/delegate"
	"codedsm/internal/field"
	"codedsm/internal/poly"
)

// dlgFixtureRound and dlgFixtureAttempt are non-zero so that a zeroed
// header cannot pass for the right one.
const dlgFixtureRound, dlgFixtureAttempt = 3, 2

// dlgFixture is a delegated cluster standing at dlgFixtureRound, with the
// raw (uint64) sections of a shape-valid cmds and proof message for it:
// coded rows, then coefficients, tau sets, results and coded states.
type dlgFixture struct {
	c     *Cluster[uint64]
	cmds  [][]uint64
	proof [4][][]uint64
}

func newDlgFixture(tb testing.TB, k, n, b int) *dlgFixture {
	tb.Helper()
	c, err := New(delegatedConfig(k, n, b))
	if err != nil {
		tb.Fatal(err)
	}
	c.round = dlgFixtureRound
	rng := rand.New(rand.NewPCG(uint64(n), uint64(k)))
	mat := func(rows, width int) [][]uint64 {
		out := make([][]uint64, rows)
		for i := range out {
			out[i] = field.RandVec[uint64](gold, rng, width)
		}
		return out
	}
	dim, comps := c.code.ResultDim(c.tr.Degree()), c.tr.ResultLen()
	fx := &dlgFixture{c: c, cmds: mat(n, c.tr.CmdLen())}
	fx.cmds[0][0] = field.GoldilocksModulus - 1 // the largest canonical element
	// Coefficient rows of every legal length 0..dim, tau sets from empty to
	// all N nodes.
	coeffs, taus := make([][]uint64, comps), make([][]uint64, comps)
	for j := range coeffs {
		coeffs[j] = field.RandVec[uint64](gold, rng, (dim+j)%(dim+1))
		for i := 0; i < n; i++ {
			if j == 0 || rng.IntN(comps) < j {
				taus[j] = append(taus[j], uint64(i))
			}
		}
	}
	if comps > 1 {
		taus[comps-1] = taus[comps-1][:0]
	}
	fx.proof = [4][][]uint64{coeffs, taus, mat(k, comps), mat(n, c.tr.StateLen())}
	return fx
}

// rawDlg writes a header and raw sections the way the codecs lay them
// out, for payloads the encoders cannot produce.
func rawDlg(round uint64, attempt uint32, sections ...[][]uint64) []byte {
	var w bwriter
	w.u64(round)
	w.u32(attempt)
	for _, rows := range sections {
		w.u32(uint32(len(rows)))
		for _, row := range rows {
			w.vec(row)
		}
	}
	return w.b
}

// editRows returns a deep copy of rows with edit applied.
func editRows(rows [][]uint64, edit func(rows [][]uint64) [][]uint64) [][]uint64 {
	out := make([][]uint64, len(rows))
	for i, row := range rows {
		out[i] = slices.Clone(row)
	}
	return edit(out)
}

// proofWith is the fixture's proof payload with one section edited.
func (fx *dlgFixture) proofWith(section int, edit func(rows [][]uint64) [][]uint64) []byte {
	s := fx.proof
	s[section] = editRows(s[section], edit)
	return rawDlg(dlgFixtureRound, dlgFixtureAttempt, s[:]...)
}

// typedProof is the fixture's proof as the engine holds it.
func (fx *dlgFixture) typedProof() *dlgProof[uint64] {
	p := &dlgProof[uint64]{outputs: fx.proof[2], codedNext: fx.proof[3]}
	p.Dim = fx.c.code.ResultDim(fx.c.tr.Degree())
	for j, h := range fx.proof[0] {
		p.Coeffs = append(p.Coeffs, poly.Poly[uint64](h))
		tau := make([]int, len(fx.proof[1][j]))
		for t, i := range fx.proof[1][j] {
			tau[t] = int(i)
		}
		p.Tau = append(p.Tau, tau)
	}
	return p
}

// TestDelegatedMsgCodec: the three delegated-mode messages round-trip at
// the small delegated test shape and at the csmload shape, and every
// malformed payload is refused before anything is allocated.
func TestDelegatedMsgCodec(t *testing.T) {
	const maxU32 = 1<<32 - 1
	for _, shape := range []struct{ k, n, b int }{{2, 14, 3}, {22, 64, 21}} {
		fx := newDlgFixture(t, shape.k, shape.n, shape.b)
		c, n := fx.c, shape.n
		dim := c.code.ResultDim(c.tr.Degree())
		name := fmt.Sprintf("N=%d/K=%d/", shape.n, shape.k)

		t.Run(name+"cmds/roundtrip", func(t *testing.T) {
			payload := c.encodeDlgCmds(dlgFixtureAttempt, fx.cmds)
			if want := rawDlg(dlgFixtureRound, dlgFixtureAttempt, fx.cmds); !bytes.Equal(payload, want) {
				t.Fatalf("layout differs:\n got %x\nwant %x", payload, want)
			}
			got, ok := c.parseDlgCmds(payload, dlgFixtureAttempt)
			if !ok || !reflect.DeepEqual(got, fx.cmds) {
				t.Fatalf("ok=%v, rows differ: %v", ok, !reflect.DeepEqual(got, fx.cmds))
			}
			if again := c.encodeDlgCmds(dlgFixtureAttempt, got); !bytes.Equal(again, payload) {
				t.Fatal("re-encoding differs")
			}
		})
		t.Run(name+"proof/roundtrip", func(t *testing.T) {
			want := fx.typedProof()
			payload := c.encodeDlgProof(dlgFixtureAttempt, want)
			if raw := rawDlg(dlgFixtureRound, dlgFixtureAttempt, fx.proof[:]...); !bytes.Equal(payload, raw) {
				t.Fatalf("layout differs:\n got %x\nwant %x", payload, raw)
			}
			got, ok := c.parseDlgProof(payload, dlgFixtureAttempt)
			if !ok {
				t.Fatal("refused")
			}
			// An empty row parses to an empty, not nil, vector.
			if got.Dim != want.Dim || !reflect.DeepEqual(got.outputs, want.outputs) || !reflect.DeepEqual(got.codedNext, want.codedNext) ||
				!slices.EqualFunc(got.Coeffs, want.Coeffs, func(a, b poly.Poly[uint64]) bool { return slices.Equal(a, b) }) ||
				!slices.EqualFunc(got.Tau, want.Tau, func(a, b []int) bool { return slices.Equal(a, b) }) {
				t.Fatalf("proof differs:\n got %+v\nwant %+v", got, want)
			}
			if again := c.encodeDlgProof(dlgFixtureAttempt, got); !bytes.Equal(again, payload) {
				t.Fatal("re-encoding differs")
			}
		})
		t.Run(name+"alert/roundtrip", func(t *testing.T) {
			for _, phase := range []byte{dlgAlertEnc, dlgAlertDec} {
				payload := encodeDlgAlert(dlgFixtureRound, dlgFixtureAttempt, phase)
				if len(payload) != 13 || !parseDlgAlert(payload, dlgFixtureRound, dlgFixtureAttempt, phase) {
					t.Fatalf("phase %d: %d-byte alert refused", phase, len(payload))
				}
			}
		})

		validCmds := rawDlg(dlgFixtureRound, dlgFixtureAttempt, fx.cmds)
		cmdsWith := func(edit func(rows [][]uint64) [][]uint64) []byte {
			return rawDlg(dlgFixtureRound, dlgFixtureAttempt, editRows(fx.cmds, edit))
		}
		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"empty", nil},
			{"short header", validCmds[:11]},
			{"header only", validCmds[:12]},
			{"wrong round", rawDlg(dlgFixtureRound+1, dlgFixtureAttempt, fx.cmds)},
			{"zero round", rawDlg(0, dlgFixtureAttempt, fx.cmds)},
			{"wrong attempt", rawDlg(dlgFixtureRound, dlgFixtureAttempt+1, fx.cmds)},
			{"a row short of N", cmdsWith(func(r [][]uint64) [][]uint64 { return r[:n-1] })},
			{"a row beyond N", cmdsWith(func(r [][]uint64) [][]uint64 { return append(r, r[0]) })},
			{"ragged rows, same size", cmdsWith(func(r [][]uint64) [][]uint64 { r[1] = append(r[1], r[2]...); r[2] = nil; return r })},
			{"row count 2^32-1", append(validCmds[:12:12], 0xff, 0xff, 0xff, 0xff)},
			{"row length 2^32-1", append(validCmds[:16:16], 0xff, 0xff, 0xff, 0xff)},
			{"one byte short", validCmds[:len(validCmds)-1]},
			{"one byte long", append(bytes.Clone(validCmds), 0)},
			{"non-canonical element", cmdsWith(func(r [][]uint64) [][]uint64 { r[n-1][0] = field.GoldilocksModulus; return r })},
			{"a proof", rawDlg(dlgFixtureRound, dlgFixtureAttempt, fx.proof[:]...)},
		} {
			t.Run(name+"cmds/reject/"+tc.name, func(t *testing.T) {
				if rows, ok := c.parseDlgCmds(tc.data, dlgFixtureAttempt); ok || rows != nil {
					t.Fatalf("accepted: ok=%v rows=%v", ok, rows)
				}
				if allocs := testing.AllocsPerRun(20, func() { c.parseDlgCmds(tc.data, dlgFixtureAttempt) }); allocs != 0 {
					t.Errorf("refused only after %.0f allocations", allocs)
				}
			})
		}

		validProof := rawDlg(dlgFixtureRound, dlgFixtureAttempt, fx.proof[:]...)
		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"empty", nil},
			{"short header", validProof[:11]},
			{"wrong round", rawDlg(dlgFixtureRound-1, dlgFixtureAttempt, fx.proof[:]...)},
			{"wrong attempt", rawDlg(dlgFixtureRound, 0, fx.proof[:]...)},
			{"a component short", fx.proofWith(0, func(r [][]uint64) [][]uint64 { return r[1:] })},
			{"more than dim coefficients", fx.proofWith(0, func(r [][]uint64) [][]uint64 { r[0] = make([]uint64, dim+1); return r })},
			{"coefficient count 2^32-1", append(validProof[:16:16], 0xff, 0xff, 0xff, 0xff)},
			{"non-canonical coefficient", fx.proofWith(0, func(r [][]uint64) [][]uint64 { r[0] = []uint64{field.GoldilocksModulus + 1}; return r })},
			{"tau entry N", fx.proofWith(1, func(r [][]uint64) [][]uint64 { r[0][n-1] = uint64(n); return r })},
			{"tau entry -1", fx.proofWith(1, func(r [][]uint64) [][]uint64 { r[0][0] = maxU32<<32 | maxU32; return r })},
			{"more than N tau entries", fx.proofWith(1, func(r [][]uint64) [][]uint64 { r[0] = append(r[0], 0); return r })},
			{"a tau set short", fx.proofWith(1, func(r [][]uint64) [][]uint64 { return r[1:] })},
			{"a result short of K", fx.proofWith(2, func(r [][]uint64) [][]uint64 { return r[1:] })},
			{"ragged result", fx.proofWith(2, func(r [][]uint64) [][]uint64 { r[0] = r[0][1:]; return r })},
			{"non-canonical result", fx.proofWith(2, func(r [][]uint64) [][]uint64 { r[0][0] = maxU32<<32 | maxU32; return r })},
			{"a coded state short of N", fx.proofWith(3, func(r [][]uint64) [][]uint64 { return r[:n-1] })},
			{"ragged coded state", fx.proofWith(3, func(r [][]uint64) [][]uint64 { r[n-1] = append(r[n-1], 1); return r })},
			{"non-canonical coded state", fx.proofWith(3, func(r [][]uint64) [][]uint64 { r[n-1][0] = field.GoldilocksModulus; return r })},
			{"one byte short", validProof[:len(validProof)-1]},
			{"one byte long", append(bytes.Clone(validProof), 0)},
			{"a cmds message", validCmds},
		} {
			t.Run(name+"proof/reject/"+tc.name, func(t *testing.T) {
				if p, ok := c.parseDlgProof(tc.data, dlgFixtureAttempt); ok || p != nil {
					t.Fatalf("accepted: ok=%v proof=%+v", ok, p)
				}
				if allocs := testing.AllocsPerRun(20, func() { c.parseDlgProof(tc.data, dlgFixtureAttempt) }); allocs != 0 {
					t.Errorf("refused only after %.0f allocations", allocs)
				}
			})
		}

		validAlert := encodeDlgAlert(dlgFixtureRound, dlgFixtureAttempt, dlgAlertEnc)
		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"empty", nil},
			{"short header", validAlert[:11]},
			{"no phase", validAlert[:12]},
			{"one byte long", append(bytes.Clone(validAlert), 0)},
			{"wrong round", encodeDlgAlert(dlgFixtureRound+1, dlgFixtureAttempt, dlgAlertEnc)},
			{"wrong attempt", encodeDlgAlert(dlgFixtureRound, dlgFixtureAttempt-1, dlgAlertEnc)},
			{"other phase", encodeDlgAlert(dlgFixtureRound, dlgFixtureAttempt, dlgAlertDec)},
		} {
			t.Run(name+"alert/reject/"+tc.name, func(t *testing.T) {
				if parseDlgAlert(tc.data, dlgFixtureRound, dlgFixtureAttempt, dlgAlertEnc) {
					t.Fatal("accepted")
				}
				if allocs := testing.AllocsPerRun(20, func() { parseDlgAlert(tc.data, dlgFixtureRound, dlgFixtureAttempt, dlgAlertEnc) }); allocs != 0 {
					t.Errorf("refused only after %.0f allocations", allocs)
				}
			})
		}
	}
}

// FuzzParseDelegatedMsg throws arbitrary bytes at the three delegated-mode
// parsers of an N=14 K=2 cluster. None may panic; a refusal returns
// nothing; and what one accepts re-encodes to the same bytes, so no
// allocation outgrows the input.
func FuzzParseDelegatedMsg(f *testing.F) {
	fx := newDlgFixture(f, 2, 14, 3)
	c := fx.c
	validCmds := rawDlg(dlgFixtureRound, dlgFixtureAttempt, fx.cmds)
	validProof := rawDlg(dlgFixtureRound, dlgFixtureAttempt, fx.proof[:]...)
	f.Add(validCmds)
	f.Add(validProof)
	f.Add(validCmds[:len(validCmds)-1])
	f.Add(validProof[:len(validProof)-8])
	f.Add(append(validProof[:16:16], 0xff, 0xff, 0xff, 0xff))
	f.Add(fx.proofWith(1, func(r [][]uint64) [][]uint64 { r[0][0] = 14; return r }))
	f.Add(encodeDlgAlert(dlgFixtureRound, dlgFixtureAttempt, dlgAlertEnc))
	f.Add(encodeDlgAlert(dlgFixtureRound, dlgFixtureAttempt, dlgAlertDec))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, ok := c.parseDlgCmds(data, dlgFixtureAttempt); !ok {
			if rows != nil {
				t.Fatal("cmds refused, yet returned rows")
			}
		} else if again := c.encodeDlgCmds(dlgFixtureAttempt, rows); !bytes.Equal(again, data) {
			t.Fatalf("cmds re-encoding differs:\n got %x\nwant %x", again, data)
		}
		if p, ok := c.parseDlgProof(data, dlgFixtureAttempt); !ok {
			if p != nil {
				t.Fatal("proof refused, yet returned")
			}
		} else if again := c.encodeDlgProof(dlgFixtureAttempt, p); !bytes.Equal(again, data) {
			t.Fatalf("proof re-encoding differs:\n got %x\nwant %x", again, data)
		} else {
			// Whatever parses is safe to verify, whatever the verdict.
			c.nodes[0].resetStep()
			_ = c.verifyDelegationProof(delegate.New(c.ring, c.code), c.nodes[0], p)
		}
		for _, phase := range []byte{dlgAlertEnc, dlgAlertDec} {
			if parseDlgAlert(data, dlgFixtureRound, dlgFixtureAttempt, phase) &&
				!bytes.Equal(encodeDlgAlert(dlgFixtureRound, dlgFixtureAttempt, phase), data) {
				t.Fatalf("alert re-encoding differs from %x", data)
			}
		}
	})
}
