// Wall-clock benchmarks for the paper's quantitative content. Each paper
// table/figure has a benchmark counterpart here; the exact *measurements*
// (operation counts, thresholds, tables) and a verdict per claim are in
// RESULTS.md, which TestPaperArtifacts (results_test.go) regenerates and
// checks. §5.2's decoder comparison below is this repository's ablation,
// not a paper claim.
//
//	Table 1  -> BenchmarkTable1_*        (scheme round cost at fixed N)
//	Table 2  -> BenchmarkTable2_*        (decoding at the fault threshold)
//	Thm 1    -> BenchmarkScalingCSM/*    (round cost vs N at µ = 1/3)
//	Fig. 2   -> BenchmarkFig2MinimalCluster
//	Fig. 3   -> BenchmarkFig3CodedExecution
//	Fig. 4   -> BenchmarkFig4DelegatedRound
//	Fig. 5   -> BenchmarkFig5IntermixAudit
//	§6.2     -> BenchmarkCoding* (naive vs fast encode/decode ablation)
//	§5.2     -> BenchmarkRSDecoderGao (the execution-phase decode)
//	§3       -> BenchmarkConsensus* (consensus-phase protocols)
package codedsm

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"codedsm/internal/consensus"
	"codedsm/internal/consensus/dolevstrong"
	"codedsm/internal/consensus/pbft"
	"codedsm/internal/csm"
	"codedsm/internal/delegate"
	"codedsm/internal/field"
	"codedsm/internal/intermix"
	"codedsm/internal/lcc"
	"codedsm/internal/poly"
	"codedsm/internal/replication"
	"codedsm/internal/rs"
	"codedsm/internal/sm"
	"codedsm/internal/transport"
)

var gold = field.NewGoldilocks()

func bankCluster(b *testing.B, k, n, faults int, byz map[int]Behavior) *Cluster[uint64] {
	b.Helper()
	c, err := csm.New(csm.Config[uint64]{
		BaseField:     gold,
		NewTransition: NewBank[uint64],
		K:             k, N: n, MaxFaults: faults,
		Mode: Synchronous, Consensus: OracleConsensus,
		Byzantine: byz, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func runWorkload(b *testing.B, c *Cluster[uint64], k int) {
	b.Helper()
	wl := RandomWorkload[uint64](gold, 1, k, 1, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.ExecuteRound(wl[0])
		if err != nil {
			b.Fatal(err)
		}
		if !res.Correct {
			b.Fatal("incorrect round")
		}
	}
}

// --- Table 1 ---

func BenchmarkTable1_FullReplication(b *testing.B) {
	c, err := replication.NewFull(replication.Config[uint64]{
		BaseField: gold, NewTransition: NewBank[uint64], K: 8, N: 24, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 1, 8, 1, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExecuteRound(wl[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_PartialReplication(b *testing.B) {
	c, err := replication.NewPartial(replication.Config[uint64]{
		BaseField: gold, NewTransition: NewBank[uint64], K: 8, N: 24, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	wl := RandomWorkload[uint64](gold, 1, 8, 1, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ExecuteRound(wl[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_CSM(b *testing.B) {
	byz := map[int]Behavior{1: WrongResult, 5: WrongResult, 9: WrongResult}
	c := bankCluster(b, 8, 24, 8, byz)
	runWorkload(b, c, 8)
}

// --- Table 2: decoding exactly at the fault threshold ---

func BenchmarkTable2_SyncDecodeAtThreshold(b *testing.B) {
	const n, k, d = 31, 4, 2
	ring := poly.NewRing[uint64](gold)
	code, err := lcc.New(ring, k, n)
	if err != nil {
		b.Fatal(err)
	}
	faults := lcc.SyncMaxFaults(n, k, d)
	states := make([][]uint64, k)
	for i := range states {
		states[i] = []uint64{uint64(i + 1)}
	}
	// Degree-d "results": use coded states put through x -> x^d elementwise
	// via an actual polynomial machine round.
	tr, err := NewPolynomialRegister[uint64](gold, d)
	if err != nil {
		b.Fatal(err)
	}
	codedStates, err := code.EncodeVectors(states)
	if err != nil {
		b.Fatal(err)
	}
	cmds := make([][]uint64, k)
	for i := range cmds {
		cmds[i] = []uint64{uint64(7 * (i + 1))}
	}
	codedCmds, err := code.EncodeVectors(cmds)
	if err != nil {
		b.Fatal(err)
	}
	results := make([][]uint64, n)
	for i := range results {
		if results[i], err = tr.ApplyResult(codedStates[i], codedCmds[i]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < faults; i++ {
		results[i*2][0]++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.DecodeOutputs(results, d); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Theorem 1 scaling ---

func BenchmarkScalingCSM(b *testing.B) {
	for _, n := range []int{12, 24, 48, 96} {
		faults := n / 3
		k := SyncMaxMachines(n, faults, 1)
		byz := map[int]Behavior{}
		for i := 0; len(byz) < faults; i++ {
			byz[(i*5+2)%n] = WrongResult
		}
		b.Run(fmt.Sprintf("N=%d/K=%d/b=%d", n, k, faults), func(b *testing.B) {
			c := bankCluster(b, k, n, faults, byz)
			runWorkload(b, c, k)
		})
	}
}

// --- Pipelined engine: batch x pipeline sweep ---

// BenchmarkClusterRoundPipelined measures the batched + pipelined engine
// against the sequential one on the reference cluster (N=64, µ = 1/3
// wrong-result nodes, oracle consensus — the paper's throughput setting).
// Each op executes an 8-round workload, so commands/sec =
// 8*K / (ns_op * 1e-9). Outputs are identical across all
// configurations (TestPipelinedBitIdenticalToSequential,
// TestBatchedMatchesSequentialOutputs); the batched configurations win by
// priming steady-state decodes with the previous micro-step's faulty set,
// and pipelining overlaps the client stage with the next rounds'
// execution.
func BenchmarkClusterRoundPipelined(b *testing.B) {
	const n, roundsPerOp = 64, 8
	faults := n / 3
	k := SyncMaxMachines(n, faults, 1)
	byz := map[int]Behavior{}
	for i := 0; len(byz) < faults; i++ {
		byz[(i*5+2)%n] = WrongResult
	}
	for _, tc := range []struct {
		name            string
		batch, pipeline int
	}{
		{"sequential/B=1", 1, 0},
		{"pipelined/B=1", 1, 4},
		{"pipelined/B=4", 4, 4},
		{"pipelined/B=8", 8, 4},
	} {
		b.Run(fmt.Sprintf("N=%d/K=%d/%s", n, k, tc.name), func(b *testing.B) {
			c, err := csm.New(csm.Config[uint64]{
				BaseField:     gold,
				NewTransition: NewBank[uint64],
				K:             k, N: n, MaxFaults: faults,
				Mode: Synchronous, Consensus: OracleConsensus,
				Byzantine: byz, Seed: 1,
				BatchSize: tc.batch, Pipeline: tc.pipeline,
			})
			if err != nil {
				b.Fatal(err)
			}
			wl := RandomWorkload[uint64](gold, roundsPerOp, k, 1, 9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := c.Run(wl)
				if err != nil {
					b.Fatal(err)
				}
				for _, res := range results {
					if !res.Correct {
						b.Fatal("incorrect round")
					}
				}
			}
		})
	}
}

// --- Submit-based ingress: client throughput ---

// BenchmarkClientThroughput measures the serving path end to end:
// concurrent submitters push individual commands through Client.Submit
// (bounded queues, futures), the admission scheduler coalesces them into
// rounds and consensus batches, and the coded execution engine runs
// underneath with µ = 1/3 wrong-result nodes. Each op is one submitted
// command, so commands/sec = 1 / (ns_op * 1e-9); compare against the
// batch path in BenchmarkClusterRoundPipelined (ns_op there covers 8*K
// commands).
func BenchmarkClientThroughput(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{16, 64} {
		faults := n / 3
		k := SyncMaxMachines(n, faults, 1)
		byz := map[int]Behavior{}
		for i := 0; len(byz) < faults; i++ {
			byz[(i*5+2)%n] = WrongResult
		}
		for _, submitters := range []int{1, 4} {
			for _, batch := range []int{1, 8} {
				name := fmt.Sprintf("N=%d/K=%d/submitters=%d/batch=%d", n, k, submitters, batch)
				b.Run(name, func(b *testing.B) {
					c, err := Open(gold, NewBank[uint64],
						WithNodes(n), WithMachines(k), WithFaults(faults),
						WithByzantine(byz), WithSeed(1),
						WithBatching(batch))
					if err != nil {
						b.Fatal(err)
					}
					client, err := c.Open(WithSubmitQueueDepth(4 * batch))
					if err != nil {
						b.Fatal(err)
					}
					cmds := RandomWorkload[uint64](gold, 1, k, 1, 9)[0]
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for s := 0; s < submitters; s++ {
						wg.Add(1)
						go func(s int) {
							defer wg.Done()
							for i := s; i < b.N; i += submitters {
								machine := i % k
								if _, err := client.Submit(ctx, machine, cmds[machine]); err != nil {
									b.Error(err)
									return
								}
							}
						}(s)
					}
					wg.Wait()
					if err := client.Close(); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
				})
			}
		}
	}
}

// --- Section 6.2 coding ablation: naive vs fast, encode and decode ---

func BenchmarkCodingNaiveEncode(b *testing.B) {
	benchEncode(b, false)
}

func BenchmarkCodingFastEncode(b *testing.B) {
	benchEncode(b, true)
}

func benchEncode(b *testing.B, fast bool) {
	b.Helper()
	for _, n := range []int{64, 256, 1024} {
		k := n / 3
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ring := poly.NewRing[uint64](gold)
			code, err := lcc.New(ring, k, n)
			if err != nil {
				b.Fatal(err)
			}
			cmds := make([][]uint64, k)
			for i := range cmds {
				cmds[i] = []uint64{uint64(i + 1)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fast {
					_, err = code.EncodeVectorsFast(cmds)
				} else {
					_, err = code.EncodeVectors(cmds)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Section 5.2: the execution-phase decode at its radius ---

func BenchmarkRSDecoderGao(b *testing.B) {
	for _, n := range []int{32, 64} {
		k := n / 4
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ring := poly.NewRing[uint64](gold)
			pts, err := gold.Elements(n)
			if err != nil {
				b.Fatal(err)
			}
			code, err := rs.NewCode(ring, pts, k)
			if err != nil {
				b.Fatal(err)
			}
			msg := make(poly.Poly[uint64], k)
			for i := range msg {
				msg[i] = uint64(i + 3)
			}
			word, err := code.Encode(msg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < code.MaxErrors(); i++ {
				word[i] = gold.Add(word[i], 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err = code.Decode(word); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 2: the minimal fault-tolerant cluster ---

func BenchmarkFig2MinimalCluster(b *testing.B) {
	c := bankCluster(b, 2, 4, 1, map[int]Behavior{2: WrongResult})
	runWorkload(b, c, 2)
}

// --- Figure 3: coded execution with one erroneous result ---

func BenchmarkFig3CodedExecution(b *testing.B) {
	const k, n, d = 2, 5, 1
	ring := poly.NewRing[uint64](gold)
	code, err := lcc.New(ring, k, n)
	if err != nil {
		b.Fatal(err)
	}
	states := [][]uint64{{11}, {22}}
	coded, err := code.EncodeVectors(states)
	if err != nil {
		b.Fatal(err)
	}
	coded[1][0]++ // node 2's g is erroneous, as in the figure
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := code.DecodeOutputs(coded, d)
		if err != nil {
			b.Fatal(err)
		}
		if dec.Outputs[0][0] != 11 {
			b.Fatal("figure 3 decode wrong")
		}
	}
}

// --- Figure 4: delegated computing round ---

func BenchmarkFig4DelegatedRound(b *testing.B) {
	const k, n = 3, 16
	ring := poly.NewRing[uint64](gold)
	code, err := lcc.New(ring, k, n)
	if err != nil {
		b.Fatal(err)
	}
	d := delegate.New(ring, code)
	tr, err := sm.NewQuadraticTally[uint64](gold)
	if err != nil {
		b.Fatal(err)
	}
	states := make([][]uint64, k)
	cmds := make([][]uint64, k)
	for i := 0; i < k; i++ {
		states[i] = []uint64{uint64(i + 1)}
		cmds[i] = []uint64{uint64(2 * (i + 1))}
	}
	codedStates, err := code.EncodeVectors(states)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codedCmds, err := d.EncodeCommands(cmds)
		if err != nil {
			b.Fatal(err)
		}
		results := make([][]uint64, n)
		for j := range results {
			if results[j], err = tr.ApplyResult(codedStates[j], codedCmds[j]); err != nil {
				b.Fatal(err)
			}
		}
		dec, proof, err := d.DecodeWithProof(results, tr.Degree())
		if err != nil {
			b.Fatal(err)
		}
		if err := d.VerifyDecodeProof(results, tr.Degree(), proof, dec.Outputs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 5: INTERMIX interactive fraud localization ---

func BenchmarkFig5IntermixAudit(b *testing.B) {
	const n, k = 64, 32
	a := make([][]uint64, n)
	for i := range a {
		a[i] = make([]uint64, k)
		for j := range a[i] {
			a[i][j] = uint64(i*k + j + 1)
		}
	}
	x := make([]uint64, k)
	for j := range x {
		x[j] = uint64(j + 7)
	}
	w, err := intermix.NewWorker[uint64](gold, a, x, intermix.ConsistentLiar, n/2, k/2)
	if err != nil {
		b.Fatal(err)
	}
	output := w.Output()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alert, err := intermix.Audit[uint64](gold, a, x, output, w.Answer)
		if err != nil {
			b.Fatal(err)
		}
		if alert == nil || alert.Kind != intermix.LeafMismatch {
			b.Fatal("fraud not localized")
		}
	}
}

// --- Consensus-phase protocols (Section 3) ---

func BenchmarkConsensusDolevStrong(b *testing.B) {
	const n, faults = 10, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := transport.New(transport.Config{N: n, Mode: transport.Sync, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		nodes := make([]consensus.Node, n)
		waitFor := make([]int, n)
		for j := 0; j < n; j++ {
			tr, err := consensus.NewNetTransport(net, transport.NodeID(j))
			if err != nil {
				b.Fatal(err)
			}
			nodes[j], err = dolevstrong.New(dolevstrong.Config{
				Transport: tr, Sender: 0, Slot: 1,
				MaxFaults: faults, Value: []byte("v"),
			})
			if err != nil {
				b.Fatal(err)
			}
			waitFor[j] = j
		}
		if err := consensus.Run(net, nodes, waitFor, dolevstrong.Rounds(faults)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsensusPBFT(b *testing.B) {
	const n, faults = 7, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net, err := transport.New(transport.Config{N: n, Mode: transport.Sync, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		nodes := make([]consensus.Node, n)
		waitFor := make([]int, n)
		for j := 0; j < n; j++ {
			tr, err := consensus.NewNetTransport(net, transport.NodeID(j))
			if err != nil {
				b.Fatal(err)
			}
			nodes[j], err = pbft.New(pbft.Config{
				Transport: tr, Slot: 1,
				MaxFaults: faults, Value: []byte("v"),
			})
			if err != nil {
				b.Fatal(err)
			}
			waitFor[j] = j
		}
		if err := consensus.Run(net, nodes, waitFor, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Committee election ---

func BenchmarkElection(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := intermix.ElectCommittee(uint64(i), 128, 7); len(c) > 128 {
			b.Fatal("impossible")
		}
	}
}

// --- Section 6.2 in the engine: delegated vs decentralized round ---

func BenchmarkDelegatedEngineRound(b *testing.B) {
	c, err := csm.New(csm.Config[uint64]{
		BaseField:     gold,
		NewTransition: NewBank[uint64],
		K:             8, N: 24, MaxFaults: 8,
		Mode: Synchronous, Consensus: OracleConsensus,
		Delegated: true,
		Byzantine: map[int]Behavior{1: WrongResult, 5: WrongResult, 9: WrongResult},
		Seed:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	runWorkload(b, c, 8)
}
