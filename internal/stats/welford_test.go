package stats

import (
	"math"
	"testing"
)

func TestWelfordAgainstDirect(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
	}{
		{"constant", []float64{5, 5, 5, 5}},
		{"two", []float64{1, 3}},
		{"ipc-like", []float64{1.91, 2.03, 1.88, 1.95, 2.10, 1.99}},
		{"large-offset", []float64{1e9 + 1, 1e9 + 2, 1e9 + 3}},
		{"negative", []float64{-4, -2, 0, 2, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var w Welford
			for _, x := range tc.xs {
				w.Add(x)
			}
			if got, want := w.N(), int64(len(tc.xs)); got != want {
				t.Fatalf("N = %d, want %d", got, want)
			}
			var sum float64
			for _, x := range tc.xs {
				sum += x
			}
			mean := sum / float64(len(tc.xs))
			if math.Abs(w.Mean()-mean) > 1e-9*math.Max(1, math.Abs(mean)) {
				t.Errorf("Mean = %g, want %g", w.Mean(), mean)
			}
			var ss float64
			for _, x := range tc.xs {
				ss += (x - mean) * (x - mean)
			}
			variance := ss / float64(len(tc.xs)-1)
			if math.Abs(w.Variance()-variance) > 1e-6*math.Max(1, variance) {
				t.Errorf("Variance = %g, want %g", w.Variance(), variance)
			}
		})
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	mean, lo, hi := w.CI(0.95)
	if mean != 0 || lo != 0 || hi != 0 {
		t.Fatalf("empty CI = (%g,%g,%g), want zeros", mean, lo, hi)
	}
	w.Add(2.5)
	if w.Variance() != 0 {
		t.Errorf("single-sample variance = %g, want 0", w.Variance())
	}
	mean, lo, hi = w.CI(0.95)
	if mean != 2.5 || lo != 2.5 || hi != 2.5 {
		t.Errorf("single-sample CI = (%g,%g,%g), want collapsed to 2.5", mean, lo, hi)
	}
}

func TestWelfordCI(t *testing.T) {
	// Five samples with mean 3, stddev sqrt(2.5): half-width =
	// t(0.95, df=4) * sqrt(2.5/5) = 2.776 * 0.7071... = 1.963.
	var w Welford
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Add(x)
	}
	mean, lo, hi := w.CI(0.95)
	if mean != 3 {
		t.Fatalf("mean = %g, want 3", mean)
	}
	wantHalf := 2.776 * math.Sqrt(2.5/5)
	if math.Abs((hi-lo)/2-wantHalf) > 1e-3 {
		t.Errorf("half-width = %g, want %g", (hi-lo)/2, wantHalf)
	}
	if math.Abs((hi+lo)/2-mean) > 1e-12 {
		t.Errorf("CI not centered on mean: (%g, %g)", lo, hi)
	}
}

func TestTInvTable(t *testing.T) {
	cases := []struct {
		level float64
		df    int64
		want  float64
		tol   float64
	}{
		{0.95, 1, 12.706, 1e-9},
		{0.95, 4, 2.776, 1e-9},
		{0.95, 30, 2.042, 1e-9},
		{0.95, 120, 1.980, 1e-9},
		{0.99, 2, 9.925, 1e-9},
		{0.99, 10, 3.169, 1e-9},
		// Between tabulated rows: interpolated, bracketed by neighbors.
		{0.95, 50, (2.021 + 2.000) / 2, 1e-9},
		// Beyond the table: normal approximation, z(95%) ≈ 1.960.
		{0.95, 10000, 1.960, 1e-3},
		{0.99, 10000, 2.576, 1e-3},
	}
	for _, tc := range cases {
		got := TInv(tc.level, tc.df)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("TInv(%g, %d) = %g, want %g", tc.level, tc.df, got, tc.want)
		}
	}
	// Monotonicity: critical value shrinks as df grows.
	prev := math.Inf(1)
	for _, df := range []int64{1, 2, 5, 10, 30, 60, 120, 500} {
		v := TInv(0.95, df)
		if v > prev {
			t.Errorf("TInv(0.95, %d) = %g not monotone (prev %g)", df, v, prev)
		}
		prev = v
	}
	if got := TInv(0.95, 0); got != TInv(0.95, 1) {
		t.Errorf("df<1 should clamp to 1, got %g", got)
	}
}

func TestNormInv(t *testing.T) {
	if got := normInv(0.95); math.Abs(got-1.95996) > 1e-4 {
		t.Errorf("normInv(0.95) = %g, want 1.95996", got)
	}
	if got := normInv(0); got != 0 {
		t.Errorf("normInv(0) = %g, want 0", got)
	}
	if got := normInv(1); got != 0 {
		t.Errorf("normInv(1) = %g, want 0", got)
	}
}
