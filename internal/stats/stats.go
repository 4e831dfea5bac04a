// Package stats implements the paper's evaluation metrics: weighted
// speedup (system performance, §7), maximum slowdown on a benign
// application (unfairness, §7), memory-latency percentiles (Figs. 11/17),
// and small aggregation helpers (geometric mean, quartiles, Welford
// confidence intervals).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// WeightedSpeedup returns Σ IPC_shared[i] / IPC_alone[i] over the threads
// selected by include (nil includes all). This is the multi-programmed
// system-performance metric of Eyerman & Eeckhout / Snavely & Tullsen that
// the paper uses; benign-only weighted speedup passes include=benign mask.
func WeightedSpeedup(ipcShared, ipcAlone []float64, include []bool) float64 {
	var ws float64
	for i := range ipcShared {
		if include != nil && !include[i] {
			continue
		}
		if ipcAlone[i] <= 0 {
			continue
		}
		ws += ipcShared[i] / ipcAlone[i]
	}
	return ws
}

// MaxSlowdown returns max_i IPC_alone[i]/IPC_shared[i] over the selected
// threads — the paper's unfairness metric (maximum slowdown on a benign
// application).
func MaxSlowdown(ipcShared, ipcAlone []float64, include []bool) float64 {
	worst := 0.0
	for i := range ipcShared {
		if include != nil && !include[i] {
			continue
		}
		if ipcShared[i] <= 0 {
			return math.Inf(1)
		}
		if s := ipcAlone[i] / ipcShared[i]; s > worst {
			worst = s
		}
	}
	return worst
}

// GeoMean returns the geometric mean of positive values (zero and negative
// inputs are skipped, matching how the paper aggregates normalized ratios).
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// RunningMean accumulates a streaming arithmetic mean without storing
// samples. The zero value is ready to use. It backs the sweep ETA
// estimator: per-point wall-clock samples trickle in as points finish,
// and the mean times the number of outstanding points gives the
// projection. Not safe for concurrent use; callers serialize.
type RunningMean struct {
	n    int64
	mean float64
}

// Add folds one sample into the mean.
func (m *RunningMean) Add(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// N returns the number of samples seen.
func (m *RunningMean) N() int64 { return m.n }

// Mean returns the current mean (0 before any sample).
func (m *RunningMean) Mean() float64 { return m.mean }

// Histogram is a fixed-width bucket histogram for memory latencies in
// nanoseconds, with an overflow bucket. It answers percentile queries with
// bucket-granularity accuracy, which is all Figs. 11/17 need.
//
// The shape is nominal: size buckets of width ns each. The buckets slice
// holds only as many as the highest bucket ever touched needs — every
// index from len(buckets) up to size reads as zero — so a latency
// histogram costs what its largest sample implies, not its 16 µs ceiling
// (a store holds one per thread per mix per point; see histogram_json.go
// for the wire form).
type Histogram struct {
	width    float64
	size     int     // nominal bucket count: the histogram covers [0, width*size) ns
	buckets  []int64 // the first len(buckets) of them; the rest are zero
	overflow int64
	count    int64
	sum      float64
	max      float64
}

// NewHistogram builds a histogram covering [0, width*buckets) ns.
func NewHistogram(width float64, buckets int) *Histogram {
	if width <= 0 || buckets <= 0 {
		panic(fmt.Sprintf("stats: bad histogram shape %gx%d", width, buckets))
	}
	return &Histogram{width: width, size: buckets}
}

// NewLatencyHistogram returns the default memory-latency histogram:
// 1 ns buckets up to 16 µs (AQUA's migrations produce multi-µs latencies).
func NewLatencyHistogram() *Histogram { return NewHistogram(1, 16384) }

// grow extends the held buckets to n (at most size) of them.
func (h *Histogram) grow(n int) {
	h.buckets = append(h.buckets, make([]int64, n-len(h.buckets))...)
}

// Add records one sample.
func (h *Histogram) Add(ns float64) {
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
	idx := int(ns / h.width)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.buckets) {
		if idx >= h.size {
			h.overflow++
			return
		}
		h.grow(idx + 1)
	}
	h.buckets[idx]++
}

// AddHistogram merges another histogram with the same shape.
func (h *Histogram) AddHistogram(o *Histogram) {
	if o.size != h.size || o.width != h.width {
		panic("stats: merging histograms of different shapes")
	}
	if len(o.buckets) > len(h.buckets) {
		h.grow(len(o.buckets))
	}
	for i, v := range o.buckets {
		h.buckets[i] += v
	}
	h.overflow += o.overflow
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the average sample (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() float64 { return h.max }

// Percentile returns the p-th percentile (p in [0,100]) with bucket
// granularity; overflow samples report the histogram ceiling.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := int64(math.Ceil(p / 100 * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, v := range h.buckets {
		cum += v
		if cum >= target {
			return (float64(i) + 0.5) * h.width
		}
	}
	return float64(h.size) * h.width
}

// Quartiles returns (Q1, median, Q3) of xs, the box edges of Fig. 19's
// box-and-whisker plots.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = quantileSorted(s, 0.50)
	q1 = quantileSorted(s, 0.25)
	q3 = quantileSorted(s, 0.75)
	return q1, med, q3
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}
