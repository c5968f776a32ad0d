package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, shuffled
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !slices.Equal(vals[:3], []float64{10, 1, 9}) {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// TestSupportedPercentile pins the ">= 10 samples beyond" rule that picks
// the highest percentile a sample can support.
func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0},     // not even the median has 10 beyond
		{19, 0},    // median at rank 10: 9 beyond
		{20, 50},   // 10 beyond the median
		{99, 50},   // p90 at rank 90: 9 beyond
		{100, 90},  // p90: 10 beyond; p95: 5
		{199, 90},  // p95 at rank 190: 9 beyond
		{200, 95},  // the issue's example: at 200 batches p90 has 20 beyond, p95 exactly 10
		{1000, 99}, // p99: 10 beyond
		{9999, 99}, // p99.9 at rank 9990: 9 beyond
		{10000, 99.9},
	} {
		if got := supportedPercentile(tc.n); got != tc.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// TestSummarizeSegmentMedians builds a run whose segments differ, one of
// them hit by a noisy neighbour, and checks that every metric is the
// median of the per-segment values.
func TestSummarizeSegmentMedians(t *testing.T) {
	const perSeg, cmdsPerBatch = 10, 4
	// Batch latencies (ms) per segment; segment 3 is the disturbed one.
	segLat := []time.Duration{10, 12, 11, 50, 9}
	var samples []sample
	var now, cpu time.Duration
	for _, lat := range segLat {
		for i := 0; i < perSeg; i++ {
			start := now
			now += lat * time.Millisecond
			cpu += 2 * lat * time.Millisecond // two busy cores
			samples = append(samples, sample{start: start, end: now, cpu: cpu})
		}
	}
	// Three trailing samples do not fill a segment and are dropped.
	for i := 0; i < 3; i++ {
		now += time.Second
		samples = append(samples, sample{start: now - time.Second, end: now, cpu: cpu})
	}
	got := summarize(sample{}, samples, cmdsPerBatch)
	// Per-segment medians sorted: 9, 10, 11, 12, 50 -> 11 ms.
	if got.commitP50ms != 11 {
		t.Errorf("p50 = %g, want 11", got.commitP50ms)
	}
	if want := float64(cmdsPerBatch) / 0.011; math.Abs(got.cmdsPerS-want) > 1e-6 {
		t.Errorf("cmds_per_s = %g, want %g", got.cmdsPerS, want)
	}
	if want := 2 * 11.0 / cmdsPerBatch; math.Abs(got.cpuMsPerCmd-want) > 1e-9 {
		t.Errorf("cpu_ms_per_cmd = %g, want %g", got.cpuMsPerCmd, want)
	}
}

func TestWarmupAndSegments(t *testing.T) {
	samples := make([]sample, 100)
	if got := len(dropWarmup(samples)); got != 95 {
		t.Errorf("100 samples: %d left after warm-up, want 95", got)
	}
	if got := len(dropWarmup(samples[:2])); got != 1 {
		t.Errorf("2 samples: %d left after warm-up, want 1", got)
	}
	segs := segments(samples[:23])
	if len(segs) != segmentCount || len(segs[0]) != 4 || len(segs[4]) != 4 {
		t.Errorf("23 samples cut into %d segments of %d", len(segs), len(segs[0]))
	}
	if segs = segments(samples[:3]); len(segs) != 1 || len(segs[0]) != 3 {
		t.Errorf("3 samples should stay one segment")
	}
}

// TestCommandSourceIsSeeded: the same seed gives the same commands
// whatever the run length, and another seed gives others.
func TestCommandSourceIsSeeded(t *testing.T) {
	a := &commandSource{k: 2, batch: 3, seed: 9}
	b := &commandSource{k: 2, batch: 3, seed: 9}
	c := &commandSource{k: 2, batch: 3, seed: 10}
	differs := false
	for i := 0; i < chunkBatches+5; i++ { // crosses a chunk boundary
		x, y, z := a.next(), b.next(), c.next()
		if len(x) != 3 || len(x[0]) != 2 {
			t.Fatalf("batch %d has shape %dx%d", i, len(x), len(x[0]))
		}
		for j := range x {
			for m := range x[j] {
				if !slices.Equal(x[j][m], y[j][m]) {
					t.Fatalf("batch %d differs between equal seeds", i)
				}
				differs = differs || !slices.Equal(x[j][m], z[j][m])
			}
		}
	}
	if !differs {
		t.Error("seeds 9 and 10 gave the same commands")
	}
}

// smokeRounds shrinks each workload to a few batches.
var smokeRounds = map[string]int{"sim-honest": 3, "sim-byz-batched": 16, "tcp-oracle": 24, "tcp-pbft-wal": 12}

// TestSmokeAllWorkloads runs every workload for a few rounds with
// validation on: no command may fail, final states and digests must
// match the uncoded replay (runWorkload errors otherwise), and each
// workload must be the one its name says.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloads {
		r, err := runWorkload(w, runOptions{seed: 9, rounds: smokeRounds[w.name], setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.attempted != smokeRounds[w.name]*w.k {
			t.Errorf("%s: attempted=%d failed=%d", w.name, r.attempted, r.failed)
		}
		if w.tcp {
			continue
		}
		if got := r.counters.faultyDetected; got != w.liars*r.counters.rounds {
			t.Errorf("%s: %d faulty detections over %d rounds, want %d per round", w.name, got, r.counters.rounds, w.liars)
		}
	}
	left, err := filepath.Glob(filepath.Join(scratchRoot, "*"))
	if err != nil || len(left) != 0 {
		t.Errorf("WAL directories left behind: %v %v", left, err)
	}
}

// TestDecoratorIsTransparent: a tcp-oracle run with the Link decorator
// attached finishes with the same digest (which covers every output of
// every round) as one without.
func TestDecoratorIsTransparent(t *testing.T) {
	w, err := findWorkload("tcp-oracle")
	if err != nil {
		t.Fatal(err)
	}
	opt := runOptions{seed: 9, rounds: 40, setups: 1}
	bare, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.tr = newTracer(time.Now())
	traced, err := runWorkload(w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if bare.counters.digest == "" || bare.counters.digest != traced.counters.digest {
		t.Errorf("digest %q bare, %q traced", bare.counters.digest, traced.counters.digest)
	}
	if bare.failed != 0 || traced.failed != 0 {
		t.Errorf("failed commands: %d bare, %d traced", bare.failed, traced.failed)
	}
	if bare.counters.link.steps != 0 || traced.counters.link0.steps == 0 || len(opt.tr.spans) == 0 {
		t.Errorf("decorator attached to the wrong run: %d bare steps, %d traced steps, %d spans",
			bare.counters.link.steps, traced.counters.link0.steps, len(opt.tr.spans))
	}
}

// TestTracedRunReportsEveryLayer drives the command itself: a traced run
// must print a result line holding every per-layer metric, and write a
// span file whose spans hang together.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	err := run([]string{"--workload", "tcp-pbft-wal", "--seed", "3", "--seconds", "0.05", "--rounds", "12", "--trace", "1", "--trace-out", "spans"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*12*2 {
		t.Errorf("result %+v", res)
	}
	for _, d := range perLayerDefs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s: %+v present=%v", d.name, m, ok)
		}
	}
	if got := res.Metrics["wal.records_per_cmd"].Value; got <= 0 {
		t.Errorf("wal.records_per_cmd = %g on the durable workload", got)
	}
	if got := res.Metrics["csm.faulty_detected_per_round"].Value; got != 0 {
		t.Errorf("csm.faulty_detected_per_round = %g on an honest mesh", got)
	}

	f, err := os.Open(filepath.Join("spans", "tcp-pbft-wal.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[int]span{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		ids[s.ID] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs || s.Name == "" || s.Layer == "" {
			t.Fatalf("malformed span %+v", s)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok || p.Batch != s.Batch || p.StartNs > s.StartNs || p.EndNs < s.EndNs {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repo root in
// step with the tables in this package.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d here", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: %+v, want %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndDefs)
	check("per_layer", spec.PerLayer, perLayerDefs)
}
