package exp

import (
	"strconv"
	"strings"
	"testing"

	"breakhammer/internal/sim"
)

// testOptions keeps exp tests fast: one mechanism pair, one N_RH pair,
// short runs.
func testOptions() Options {
	o := QuickOptions()
	o.Base.TargetInsts = 100_000
	o.Base.BHWindow = 200_000
	o.NRHs = []int{1024, 128}
	o.Mechanisms = []string{"graphene", "rfm"}
	o.Fig2Mechs = []string{"graphene", "rfm"}
	o.THthreats = []float64{32, 4096}
	return o
}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Fields(cell)[0], 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Note: "n", Header: []string{"a", "b"}}
	tb.AddRow("x", "1.00")
	s := tb.String()
	for _, want := range []string{"== T ==", "a", "b", "x", "1.00"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") || !strings.Contains(csv, "x,1.00") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
}

func TestCSVEscaping(t *testing.T) {
	tb := Table{Header: []string{"a"}}
	tb.AddRow(`va"l,ue`)
	if got := tb.CSV(); !strings.Contains(got, `"va""l,ue"`) {
		t.Errorf("CSV escaping broken: %q", got)
	}
}

func TestFigure5AnalyticTable(t *testing.T) {
	tb := Figure5()
	if len(tb.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tb.Rows))
	}
	if len(tb.Header) != 11 { // atk% + 10 outlier configs
		t.Fatalf("cols = %d, want 11", len(tb.Header))
	}
	// At 50% attackers and TH=0.65 (column 7): the famous 4.71.
	var col = -1
	for i, h := range tb.Header {
		if h == "TH=0.65" {
			col = i
		}
	}
	if col < 0 {
		t.Fatal("TH=0.65 column missing")
	}
	row50 := tb.Rows[5]
	if got := parseCell(t, row50[col]); got < 4.6 || got > 4.8 {
		t.Errorf("Fig5[50%%, TH=0.65] = %g, want ≈ 4.71", got)
	}
}

func TestTables1And2(t *testing.T) {
	cfg := sim.DefaultConfig()
	t1 := Table1(cfg)
	if len(t1.Rows) != 4 {
		t.Errorf("Table 1 rows = %d, want 4", len(t1.Rows))
	}
	if !strings.Contains(t1.String(), "FR-FCFS+Cap with Cap=4") {
		t.Error("Table 1 missing scheduler config")
	}
	t2 := Table2(cfg)
	if !strings.Contains(t2.String(), "64 ms") {
		t.Errorf("Table 2 missing 64 ms window:\n%s", t2.String())
	}
	if !strings.Contains(t2.String(), "0.65") {
		t.Error("Table 2 missing TH_outlier")
	}
}

func TestSection6Table(t *testing.T) {
	tb := Section6()
	s := tb.String()
	for _, want := range []string{"82 bits", "0.000105", "0.0002%", "0.67 ns", "true"} {
		if !strings.Contains(s, want) {
			t.Errorf("Section 6 table missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Characterisation(t *testing.T) {
	tb, err := NewRunner(testOptions()).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (H, M, L, attacker)", len(tb.Rows))
	}
	// RBMPKI ordering: H > M > L.
	h := parseCell(t, tb.Rows[0][2])
	m := parseCell(t, tb.Rows[1][2])
	l := parseCell(t, tb.Rows[2][2])
	if !(h > m && m > l) {
		t.Errorf("RBMPKI ordering broken: H=%g M=%g L=%g", h, m, l)
	}
	// The attacker concentrates activations: rows with 64+ ACTs exist.
	att64 := parseCell(t, tb.Rows[3][5])
	if att64 < 100 {
		t.Errorf("attacker ACT-64+ rows = %g, want >= 100 (160 aggressors)", att64)
	}
}

func TestFigure2ShapeOverheadGrowsAsNRHShrinks(t *testing.T) {
	r := NewRunner(testOptions())
	tb, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 NRH points", len(tb.Rows))
	}
	// Normalized WS at NRH=128 must be <= at NRH=1024 for each mechanism
	// (performance degrades as chips get more vulnerable).
	for c := 1; c < len(tb.Header); c++ {
		hi := parseCell(t, tb.Rows[0][c])
		lo := parseCell(t, tb.Rows[1][c])
		if lo > hi+0.02 {
			t.Errorf("%s: overhead shrank as NRH fell (%.3f -> %.3f)", tb.Header[c], hi, lo)
		}
		if hi > 1.05 {
			t.Errorf("%s: normalized WS %.3f above no-mitigation baseline", tb.Header[c], hi)
		}
	}
}

func TestFigure6BreakHammerHelpsUnderAttack(t *testing.T) {
	r := NewRunner(testOptions())
	tb, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	// The geomean row (last) must be >= 1 for every mechanism.
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("last row is %q, want geomean", last[0])
	}
	for c := 1; c < len(last); c++ {
		if v := parseCell(t, last[c]); v < 1.0 {
			t.Errorf("%s geomean WS ratio = %.3f, want >= 1 (BreakHammer helps)", tb.Header[c], v)
		}
	}
}

func TestFigure8And10And12ShareRunsAndShapes(t *testing.T) {
	r := NewRunner(testOptions())
	f8, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	// Columns come in (mech, mech+BH) pairs; at the lowest NRH the +BH
	// variant must beat the bare mechanism.
	lowRow := f8.Rows[len(f8.Rows)-1]
	for c := 1; c+1 < len(f8.Header); c += 2 {
		bare := parseCell(t, lowRow[c])
		with := parseCell(t, lowRow[c+1])
		if with < bare {
			t.Errorf("Fig8 %s: +BH (%.3f) worse than bare (%.3f) at low NRH",
				f8.Header[c], with, bare)
		}
	}

	f10, err := r.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	// Preventive actions grow as NRH decreases (bare mechanisms), and +BH
	// cuts them.
	for c := 1; c+1 < len(f10.Header); c += 2 {
		hiNRH := parseCell(t, f10.Rows[0][c])
		loNRH := parseCell(t, f10.Rows[len(f10.Rows)-1][c])
		if loNRH < hiNRH {
			t.Errorf("Fig10 %s: actions did not grow as NRH fell (%.2f -> %.2f)",
				f10.Header[c], hiNRH, loNRH)
		}
		bare := parseCell(t, f10.Rows[len(f10.Rows)-1][c])
		with := parseCell(t, f10.Rows[len(f10.Rows)-1][c+1])
		if with > bare {
			t.Errorf("Fig10 %s: +BH did not reduce actions (%.2f vs %.2f)",
				f10.Header[c], with, bare)
		}
	}

	f12, err := r.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	// Energy with +BH <= bare at the lowest NRH.
	lowRow = f12.Rows[len(f12.Rows)-1]
	for c := 1; c+1 < len(f12.Header); c += 2 {
		bare := parseCell(t, lowRow[c])
		with := parseCell(t, lowRow[c+1])
		if with > bare*1.02 {
			t.Errorf("Fig12 %s: +BH energy (%.3f) above bare (%.3f)", f12.Header[c], with, bare)
		}
	}
}

func TestFigure11LatencyTable(t *testing.T) {
	r := NewRunner(testOptions())
	tb, err := r.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	// 1 no-defense row + 2 rows per mechanism.
	want := 1 + 2*len(testOptions().Mechanisms)
	if len(tb.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), want)
	}
	// Percentiles are monotone within each row.
	for _, row := range tb.Rows {
		prev := -1.0
		for c := 1; c < len(row); c++ {
			v := parseCell(t, row[c])
			if v < prev {
				t.Errorf("row %s: percentile decreased (%g after %g)", row[0], v, prev)
			}
			prev = v
		}
	}
}

func TestFigure13BreakHammerHarmlessBenign(t *testing.T) {
	r := NewRunner(testOptions())
	tb, err := r.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	for c := 1; c < len(last); c++ {
		v := parseCell(t, last[c])
		if v < 0.93 || v > 1.10 {
			t.Errorf("%s benign WS ratio = %.3f, want ≈ 1.0", tb.Header[c], v)
		}
	}
}

func TestFigure18BlockHammerComparison(t *testing.T) {
	// Parallel: its BlockHammer points take most of the package's wall,
	// and they overlap TestQuickFiguresMatchGolden's.
	t.Parallel()
	r := NewRunner(testOptions())
	tb, err := r.Figure18()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Header[len(tb.Header)-1] != "blockhammer" {
		t.Fatal("missing blockhammer column")
	}
	// At the lowest NRH, every +BH mechanism outperforms BlockHammer
	// (paper §8.3: BlockHammer collapses at low thresholds).
	lowRow := tb.Rows[len(tb.Rows)-1]
	blockhammer := parseCell(t, lowRow[len(lowRow)-1])
	for c := 1; c < len(lowRow)-1; c++ {
		if v := parseCell(t, lowRow[c]); v < blockhammer {
			t.Errorf("%s (%.3f) did not beat BlockHammer (%.3f) at low NRH",
				tb.Header[c], v, blockhammer)
		}
	}
}

func TestSection5MultiThreadedAttacks(t *testing.T) {
	opts := testOptions()
	opts.NRHs = []int{128}
	r := NewRunner(opts)
	tb, err := r.Section5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 scenarios", len(tb.Rows))
	}
	// In both scenarios summing scores per owner must finger the
	// attacking owner.
	for _, row := range tb.Rows {
		if row[3] != "true" {
			t.Errorf("scenario %q: owner tracking did not expose the attacker", row[0])
		}
	}
}
