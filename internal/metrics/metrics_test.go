package metrics

import (
	"strings"
	"testing"
)

func TestTable1SmallNetwork(t *testing.T) {
	rows, err := Table1(Table1Config{N: 24, Mu: 1.0 / 3.0, D: 1, Rounds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	byScheme := map[string]Table1Row{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
		if !r.Correct {
			t.Errorf("%s incorrect", r.Scheme)
		}
	}
	full := byScheme["full-replication"]
	part := byScheme["partial-replication"]
	cms := byScheme["csm"]
	limit := byScheme["info-theoretic-limit"]

	// Table 1 shape: full replication has top security but γ=1; partial
	// has γ=K but security q/2; CSM has both Θ(N) security and γ=K.
	if full.Storage != 1 {
		t.Errorf("γ_full = %f", full.Storage)
	}
	if part.Storage != float64(part.K) || cms.Storage != float64(cms.K) {
		t.Error("γ_partial and γ_csm should equal K")
	}
	if part.Security >= cms.Security {
		t.Errorf("β_partial=%d should be far below β_csm=%d", part.Security, cms.Security)
	}
	if full.Security <= cms.Security/2 {
		t.Errorf("β_full=%d vs β_csm=%d", full.Security, cms.Security)
	}
	if limit.Security != 12 || limit.Storage != 24 {
		t.Errorf("limit row wrong: %+v", limit)
	}
	// Throughput ordering: partial > full (K commands spread over groups).
	if part.Throughput <= full.Throughput {
		t.Errorf("λ_partial=%.4f should exceed λ_full=%.4f", part.Throughput, full.Throughput)
	}
	text := RenderTable1(rows)
	if !strings.Contains(text, "csm") || !strings.Contains(text, "SECURITY") {
		t.Error("render output malformed")
	}
}

func TestTable1Validation(t *testing.T) {
	if _, err := Table1(Table1Config{N: 25, Mu: 1.0 / 3.0, D: 1}); err == nil {
		t.Error("non-divisible N/K should fail with advice")
	}
	if _, err := Table1(Table1Config{N: 10, Mu: 0.6, D: 1}); err == nil {
		t.Error("no-capacity configuration should fail")
	}
}

func TestTable2ThresholdsMatch(t *testing.T) {
	rows, err := Table2(20, 3, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Match {
			t.Errorf("%s/%s: formula %d != empirical %d",
				r.Setting, r.Aspect, r.FormulaMaxB, r.EmpiricalMax)
		}
	}
	text := RenderTable2(rows)
	if !strings.Contains(text, "decoding") {
		t.Error("render output malformed")
	}
}

func TestTable2OtherShapes(t *testing.T) {
	for _, tc := range []struct{ n, k, d int }{{15, 2, 1}, {31, 4, 3}, {12, 1, 1}} {
		rows, err := Table2(tc.n, tc.k, tc.d, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Aspect == "decoding" && !r.Match {
				t.Errorf("n=%d k=%d d=%d %s decoding: formula %d != empirical %d",
					tc.n, tc.k, tc.d, r.Setting, r.FormulaMaxB, r.EmpiricalMax)
			}
		}
	}
}

func TestScalingSeries(t *testing.T) {
	rows, err := ScalingSeries(ScalingConfig{Ns: []int{12, 24}, Mu: 1.0 / 3.0, D: 1, Rounds: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	// Theorem 1: γ and β both grow linearly with N.
	if rows[1].Gamma <= rows[0].Gamma || rows[1].Beta <= rows[0].Beta {
		t.Errorf("no simultaneous scaling: %+v", rows)
	}
	for _, r := range rows {
		if !r.Correct {
			t.Errorf("N=%d incorrect under %d faults", r.N, r.B)
		}
		if r.WorkerOpsFast == 0 || r.NetworkOpsNaive == 0 {
			t.Errorf("coding costs not measured: %+v", r)
		}
	}
	if !strings.Contains(RenderScaling(rows), "WORKER") {
		t.Error("render output malformed")
	}
}

func TestRepairCost(t *testing.T) {
	rows, err := RepairCost([]int{12, 18}, 0.2, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Correct {
			t.Fatalf("N=%d: incorrect under crash+repair", r.N)
		}
		if r.RepairOps == 0 {
			t.Fatalf("N=%d: repair cost not measured", r.N)
		}
	}
	if out := RenderRepair(rows); !strings.Contains(out, "REPAIR OPS") {
		t.Fatalf("render: %q", out)
	}
}
