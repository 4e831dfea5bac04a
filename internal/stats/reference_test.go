package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// refHistogram is the dense, map-encoded histogram this package shipped
// before the hand-written codec, frozen here — fields, Add, AddHistogram,
// Percentile and both JSON methods, verbatim apart from the names — as the
// reference Histogram is tested against. Its marshalled bytes are the
// store's wire format: every shard ever written holds them, so a change to
// Histogram that this file's tests reject would orphan or corrupt caches.
// Do not edit it to make a test pass.
type refHistogram struct {
	width    float64
	buckets  []int64
	overflow int64
	count    int64
	sum      float64
	max      float64
}

func newRefHistogram(width float64, buckets int) *refHistogram {
	if width <= 0 || buckets <= 0 {
		panic(fmt.Sprintf("stats: bad histogram shape %gx%d", width, buckets))
	}
	return &refHistogram{width: width, buckets: make([]int64, buckets)}
}

func (h *refHistogram) Add(ns float64) {
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
		h.overflow++
		return
	}
	h.buckets[idx]++
}

func (h *refHistogram) AddHistogram(o *refHistogram) {
	if len(o.buckets) != len(h.buckets) || o.width != h.width {
		panic("stats: merging histograms of different shapes")
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

func (h *refHistogram) Count() int64 { return h.count }

func (h *refHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func (h *refHistogram) Max() float64 { return h.max }

func (h *refHistogram) Percentile(p float64) float64 {
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
	return float64(len(h.buckets)) * h.width
}

type refHistogramJSON struct {
	Width    float64          `json:"width"`
	Buckets  int              `json:"buckets"`
	Counts   map[string]int64 `json:"counts,omitempty"`
	Overflow int64            `json:"overflow,omitempty"`
	Count    int64            `json:"count"`
	Sum      float64          `json:"sum"`
	Max      float64          `json:"max"`
}

func (h *refHistogram) MarshalJSON() ([]byte, error) {
	w := refHistogramJSON{
		Width:    h.width,
		Buckets:  len(h.buckets),
		Overflow: h.overflow,
		Count:    h.count,
		Sum:      h.sum,
		Max:      h.max,
	}
	for i, v := range h.buckets {
		if v != 0 {
			if w.Counts == nil {
				w.Counts = make(map[string]int64)
			}
			w.Counts[strconv.Itoa(i)] = v
		}
	}
	return json.Marshal(w)
}

func (h *refHistogram) UnmarshalJSON(data []byte) error {
	var w refHistogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Width <= 0 || w.Buckets <= 0 {
		return fmt.Errorf("stats: bad histogram shape %gx%d in JSON", w.Width, w.Buckets)
	}
	h.width = w.Width
	h.buckets = make([]int64, w.Buckets)
	h.overflow = w.Overflow
	h.count = w.Count
	h.sum = w.Sum
	h.max = w.Max
	for k, v := range w.Counts {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= len(h.buckets) {
			return fmt.Errorf("stats: bad histogram bucket index %q", k)
		}
		h.buckets[i] = v
	}
	return nil
}
