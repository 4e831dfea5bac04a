package stats

import (
	"encoding/json"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWeightedSpeedup(t *testing.T) {
	shared := []float64{1, 2, 3, 4}
	alone := []float64{2, 2, 3, 8}
	if got := WeightedSpeedup(shared, alone, nil); !almostEq(got, 0.5+1+1+0.5) {
		t.Errorf("WS = %g, want 3", got)
	}
	// Benign mask excludes thread 3.
	mask := []bool{true, true, true, false}
	if got := WeightedSpeedup(shared, alone, mask); !almostEq(got, 2.5) {
		t.Errorf("masked WS = %g, want 2.5", got)
	}
}

func TestWeightedSpeedupSkipsZeroAlone(t *testing.T) {
	if got := WeightedSpeedup([]float64{1}, []float64{0}, nil); got != 0 {
		t.Errorf("WS with zero alone = %g, want 0", got)
	}
}

func TestMaxSlowdown(t *testing.T) {
	shared := []float64{1, 0.5}
	alone := []float64{2, 2}
	if got := MaxSlowdown(shared, alone, nil); !almostEq(got, 4) {
		t.Errorf("MaxSlowdown = %g, want 4", got)
	}
	if got := MaxSlowdown([]float64{0}, []float64{1}, nil); !math.IsInf(got, 1) {
		t.Errorf("stalled thread slowdown = %g, want +Inf", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEq(got, 2) {
		t.Errorf("GeoMean(1,4) = %g, want 2", got)
	}
	if got := GeoMean([]float64{2, 0, 8}); !almostEq(got, 4) {
		t.Errorf("GeoMean skipping zero = %g, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %g, want 0", got)
	}
}

func TestGeoMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		return g >= slices.Min(xs)-1e-9 && g <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(1, 100)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) - 0.5) // one sample per bucket 0..99
	}
	if got := h.Percentile(50); got < 49 || got > 51 {
		t.Errorf("P50 = %g, want ≈ 50", got)
	}
	if got := h.Percentile(90); got < 89 || got > 91 {
		t.Errorf("P90 = %g, want ≈ 90", got)
	}
	if got := h.Percentile(100); got < 99 {
		t.Errorf("P100 = %g, want ≈ 99.5", got)
	}
	if got := h.Mean(); got < 49 || got > 51 {
		t.Errorf("Mean = %g, want ≈ 50", got)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(5)
	h.Add(1e9)
	if got := h.Percentile(100); got != 10 {
		t.Errorf("overflowed P100 = %g, want ceiling 10", got)
	}
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
	if h.Max() != 1e9 {
		t.Errorf("Max = %g, want 1e9", h.Max())
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1, 10)
	b := NewHistogram(1, 10)
	a.Add(1)
	b.Add(2)
	b.Add(3)
	a.AddHistogram(b)
	if a.Count() != 3 {
		t.Errorf("merged count = %d, want 3", a.Count())
	}
	if got := a.Mean(); !almostEq(got, 2) {
		t.Errorf("merged mean = %g, want 2", got)
	}
}

func TestHistogramMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched merge did not panic")
		}
	}()
	NewHistogram(1, 10).AddHistogram(NewHistogram(2, 10))
}

func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		h := NewHistogram(1, 256)
		for _, s := range samples {
			h.Add(float64(s % 300))
		}
		prev := -1.0
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := Quartiles([]float64{1, 2, 3, 4, 5})
	if med != 3 {
		t.Errorf("median = %g, want 3", med)
	}
	if q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g, %g, want 2, 4", q1, q3)
	}
	if _, m, _ := Quartiles([]float64{7}); m != 7 {
		t.Error("single-element quartiles broken")
	}
	if _, m, _ := Quartiles(nil); m != 0 {
		t.Error("empty quartiles should be zero")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewLatencyHistogram()
	for _, ns := range []float64{3, 3, 120, 9000, 20000, 1e9} {
		h.Add(ns)
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count() != h.Count() || back.Max() != h.Max() || !almostEq(back.Mean(), h.Mean()) {
		t.Errorf("summary stats changed: count %d->%d max %g->%g mean %g->%g",
			h.Count(), back.Count(), h.Max(), back.Max(), h.Mean(), back.Mean())
	}
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if got, want := back.Percentile(p), h.Percentile(p); got != want {
			t.Errorf("P%g = %g after round trip, want %g", p, got, want)
		}
	}
	// A restored histogram merges with a fresh one (shape preserved).
	back.AddHistogram(NewLatencyHistogram())
}

func TestHistogramJSONRejectsBadShape(t *testing.T) {
	var h Histogram
	if err := json.Unmarshal([]byte(`{"width":0,"buckets":0}`), &h); err == nil {
		t.Error("zero-shape histogram accepted")
	}
	if err := json.Unmarshal([]byte(`{"width":1,"buckets":4,"counts":{"9":1},"count":1}`), &h); err == nil {
		t.Error("out-of-range bucket index accepted")
	}
}

func TestRunningMean(t *testing.T) {
	var m RunningMean
	if m.N() != 0 || m.Mean() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 6} {
		m.Add(x)
	}
	if m.N() != 3 {
		t.Errorf("N = %d, want 3", m.N())
	}
	if got := m.Mean(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Mean = %g, want 4", got)
	}
}
