package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// bucket reads bucket i of h the way every accessor must: indices past the
// held slice are zero.
func (h *Histogram) bucket(i int) int64 {
	if i < len(h.buckets) {
		return h.buckets[i]
	}
	return 0
}

// requireSameAsReference compares every observable of h with the frozen
// reference's, the marshalled bytes included.
func requireSameAsReference(t *testing.T, what string, h *Histogram, r *refHistogram) {
	t.Helper()
	if h.width != r.width || h.size != len(r.buckets) {
		t.Fatalf("%s: shape %gx%d, reference %gx%d", what, h.width, h.size, r.width, len(r.buckets))
	}
	if len(h.buckets) > h.size {
		t.Fatalf("%s: holds %d buckets of a nominal %d", what, len(h.buckets), h.size)
	}
	for i, want := range r.buckets {
		if got := h.bucket(i); got != want {
			t.Fatalf("%s: bucket %d = %d, reference %d", what, i, got, want)
		}
	}
	if h.overflow != r.overflow {
		t.Fatalf("%s: overflow %d, reference %d", what, h.overflow, r.overflow)
	}
	if h.Count() != r.Count() || h.Max() != r.Max() || h.Mean() != r.Mean() && !(math.IsNaN(h.Mean()) && math.IsNaN(r.Mean())) {
		t.Fatalf("%s: count/max/mean %d/%g/%g, reference %d/%g/%g", what,
			h.Count(), h.Max(), h.Mean(), r.Count(), r.Max(), r.Mean())
	}
	for _, p := range []float64{-5, 0, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 100, 200} {
		if got, want := h.Percentile(p), r.Percentile(p); got != want {
			t.Fatalf("%s: P%g = %g, reference %g", what, p, got, want)
		}
	}
	got, gotErr := h.MarshalJSON()
	want, wantErr := r.MarshalJSON()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: MarshalJSON error %v, reference %v", what, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: marshalled bytes differ\n got %s\nwant %s", what, got, want)
	}
}

// sample draws one latency from a mix that hits every branch of Add for a
// histogram covering [0, ceiling): negative, zero, sub-bucket, in range,
// just under and exactly at the ceiling, and far past it.
func sample(rng *rand.Rand, width, ceiling float64) float64 {
	switch rng.Intn(10) {
	case 0:
		return -rng.Float64() * ceiling
	case 1:
		return 0
	case 2:
		return rng.Float64() * width
	case 3:
		return ceiling
	case 4:
		return math.Nextafter(ceiling, 0)
	case 5:
		return ceiling + rng.Float64()*1e9
	case 6:
		return rng.Float64() * ceiling / 50 // where real latencies cluster
	default:
		return rng.Float64() * ceiling
	}
}

// TestHistogramMatchesReference drives Histogram and the frozen dense,
// map-encoded refHistogram with the same random sample streams and merges
// and requires every accessor and the marshalled bytes to agree at every
// step — the bytes are the store's wire format — then sends each side's
// bytes through the other's decoder.
func TestHistogramMatchesReference(t *testing.T) {
	shapes := []struct {
		width float64
		size  int
	}{{1, 16384}, {1, 100}, {2.5, 40}, {0.5, 7}, {1, 1}, {1e-7, 12}, {3e21, 3}}
	rng := rand.New(rand.NewSource(19))
	for _, shape := range shapes {
		ceiling := shape.width * float64(shape.size)
		build := func(samples int) (*Histogram, *refHistogram) {
			h, r := NewHistogram(shape.width, shape.size), newRefHistogram(shape.width, shape.size)
			requireSameAsReference(t, "empty", h, r)
			for i := 0; i < samples; i++ {
				ns := sample(rng, shape.width, ceiling)
				h.Add(ns)
				r.Add(ns)
				if i < 40 || i%97 == 0 {
					requireSameAsReference(t, "after Add", h, r)
				}
			}
			requireSameAsReference(t, "built", h, r)
			return h, r
		}
		for trial := 0; trial < 6; trial++ {
			// A short histogram holds few buckets, a long one many: merges
			// in both directions cross the held length either way.
			shortH, shortR := build(rng.Intn(4))
			longH, longR := build(50 + rng.Intn(2000))
			emptyH, emptyR := build(0)

			intoLongH, intoLongR := build(300)
			intoLongH.AddHistogram(shortH)
			intoLongR.AddHistogram(shortR)
			requireSameAsReference(t, "short merged into long", intoLongH, intoLongR)

			shortH.AddHistogram(longH)
			shortR.AddHistogram(longR)
			requireSameAsReference(t, "long merged into short", shortH, shortR)

			emptyH.AddHistogram(longH)
			emptyR.AddHistogram(longR)
			requireSameAsReference(t, "long merged into empty", emptyH, emptyR)
			longH.AddHistogram(NewHistogram(shape.width, shape.size))
			longR.AddHistogram(newRefHistogram(shape.width, shape.size))
			requireSameAsReference(t, "empty merged into long", longH, longR)

			// Each side's bytes decode on the other side to the same thing.
			data, err := longR.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			var backH Histogram
			var backR refHistogram
			if err := backH.UnmarshalJSON(data); err != nil {
				t.Fatalf("decoding reference bytes: %v\n%s", err, data)
			}
			if err := backR.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
			requireSameAsReference(t, "decoded", &backH, &backR)
			// A decoded histogram keeps counting and merging.
			backH.Add(ceiling / 3)
			backR.Add(ceiling / 3)
			backH.AddHistogram(shortH)
			backR.AddHistogram(shortR)
			requireSameAsReference(t, "decoded, then grown", &backH, &backR)
		}
	}
}

// TestHistogramHoldsWhatItsContentNeeds pins the in-memory form: a fresh
// histogram allocates no buckets, and a filled or decoded one holds them
// only up to its highest sample.
func TestHistogramHoldsWhatItsContentNeeds(t *testing.T) {
	h := NewLatencyHistogram()
	if h.buckets != nil {
		t.Fatalf("fresh histogram holds %d buckets", len(h.buckets))
	}
	h.Add(1e9) // overflow: still nothing to hold
	if h.buckets != nil {
		t.Fatalf("overflow-only histogram holds %d buckets", len(h.buckets))
	}
	h.Add(2700)
	h.Add(12)
	if len(h.buckets) != 2701 {
		t.Fatalf("holds %d buckets for a largest sample in bucket 2700", len(h.buckets))
	}
	data, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.buckets) != 2701 || cap(back.buckets) > 2*2701 {
		t.Fatalf("decoded histogram holds len %d cap %d for bucket 2700", len(back.buckets), cap(back.buckets))
	}
	var empty Histogram
	if err := json.Unmarshal([]byte(`{"width":1,"buckets":16384,"count":0,"sum":0,"max":0}`), &empty); err != nil {
		t.Fatal(err)
	}
	if empty.buckets != nil {
		t.Fatalf("decoded empty histogram holds %d buckets", len(empty.buckets))
	}
}

// shardHistograms returns real histogram excerpts, byte for byte, from a
// shard written by the codec frozen in reference_test.go.
func shardHistograms(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile("testdata/shard_histograms.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n")
}

// TestHistogramDecoderAcceptance is the half of the contract the fuzz
// target cannot state (a decoder that rejected everything would pass it):
// real shard excerpts and MarshalJSON's output for every shape
// TestHistogramMatchesReference drives must decode, to what the reference
// decodes them to, and marshal back to the same bytes.
func TestHistogramDecoderAcceptance(t *testing.T) {
	inputs := shardHistograms(t)
	rng := rand.New(rand.NewSource(23))
	for _, shape := range []struct {
		width float64
		size  int
	}{{1, 16384}, {1, 100}, {2.5, 40}, {0.5, 7}, {1, 1}, {1e-7, 12}, {3e21, 3}} {
		ceiling := shape.width * float64(shape.size)
		for _, samples := range []int{0, 1, 3, 60, 2000} {
			h := NewHistogram(shape.width, shape.size)
			for i := 0; i < samples; i++ {
				h.Add(sample(rng, shape.width, ceiling))
			}
			data, err := h.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, string(data))
		}
	}
	for _, s := range inputs {
		var h Histogram
		var r refHistogram
		if err := r.UnmarshalJSON([]byte(s)); err != nil {
			t.Fatalf("reference rejects %s: %v", s, err)
		}
		if err := h.UnmarshalJSON([]byte(s)); err != nil {
			t.Fatalf("rejected %s: %v", s, err)
		}
		requireSameAsReference(t, s, &h, &r)
		if back, _ := h.MarshalJSON(); string(back) != s {
			t.Fatalf("decoded %s\nmarshals back to %s", s, back)
		}
	}
}

// TestHistogramDecoderRejections lists what the decoder refuses: any input
// MarshalJSON would not have written. The first list is spellings the
// reference (encoding/json) accepts — each one edit away from canonical
// bytes, so it shows the decoder is stricter — the second is malformed.
func TestHistogramDecoderRejections(t *testing.T) {
	shard := shardHistograms(t)[0]
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(shard), "", "  "); err != nil {
		t.Fatal(err)
	}
	stricter := []string{
		indented.String(),
		`{"width":1, "buckets":4,"count":0,"sum":0,"max":0}`,
		`{"buckets":4,"width":1,"counts":{"1":1,"3":2},"count":3,"sum":7,"max":3}`,
		`{"width":1,"buckets":4,"counts":{"3":2,"1":1},"count":3,"sum":7,"max":3}`,
		`{"width":1,"buckets":16,"counts":{"2":1,"10":1},"count":2,"sum":12,"max":10}`,
		`{"width":1,"buckets":4,"counts":{"1":1,"3":2},"count":3,"sum":7,"max":3,"x":1}`,
		`{"width":1,"buckets":4,"future":{"a":[1,true,null,"x\n"]},"count":0,"sum":0,"max":0}`,
		`{"width":1,"buckets":4,"counts":{"1":1,"1":1,"3":2},"count":3,"sum":7,"max":3}`,
		`{"width":1,"buckets":4,"counts":{"1":1,"2":0,"3":2},"count":3,"sum":7,"max":3}`,
		`{"width":1,"buckets":4,"counts":null,"count":0,"sum":0,"max":0}`,
		`{"width":1,"buckets":4,"counts":{},"count":0,"sum":0,"max":0}`,
		`{"width":1,"buckets":4,"overflow":0,"count":0,"sum":0,"max":0}`,
		`{"width":1,"buckets":4,"count":-0,"sum":0,"max":0}`,
		`{"width":1,"buckets":4,"count":1,"sum":1.5e-9,"max":1.5E-9}`,
		`{"width":2.5e0,"buckets":4,"count":0,"sum":0,"max":0}`,
		`{"width":1,"buckets":4,"count":0,"sum":0.0,"max":0}`,
		`{"width":1,"buckets":4,"count":0,"sum":0,"max":0}` + "\n",
	}
	for _, s := range stricter {
		var r refHistogram
		if err := r.UnmarshalJSON([]byte(s)); err != nil {
			t.Errorf("the reference rejects %s too (%v): the row shows nothing", s, err)
		}
	}
	malformed := []string{
		``, `null`, `[]`, `7`, `{`, `{"width":1,"buckets":4`,
		`{"width":1,"buckets":4,}`, `{"width":1,"buckets":4} x`,
		`{"width":1,"buckets":4,"count":1.0}`, `{"width":1,"buckets":4,"count":1e2}`,
		`{"width":1,"buckets":4,"count":01}`, `{"width":1,"buckets":4,"count":9223372036854775808}`,
		`{"width":"1","buckets":4}`, `{"width":1e999,"buckets":4}`, `{"width":-1,"buckets":4}`,
		`{"width":1,"buckets":-4}`, `{"width":1}`, `{"buckets":4}`,
		`{"width":1,"buckets":4,"counts":{"4":1}}`, `{"width":1,"buckets":4,"counts":{"-1":1}}`,
		`{"width":1,"buckets":4,"counts":{"x":1}}`, `{"width":1,"buckets":4,"counts":{"":1}}`,
		`{"width":1,"buckets":4,"counts":{"01":1}}`, `{"width":1,"buckets":4,"counts":{"+1":1}}`,
		`{"width":1,"buckets":4,"counts":{"1":null}}`, `{"width":1,"buckets":4,"counts":{"1":"1"}}`,
		`{"width":1,"buckets":4,"counts":{"1":1.5}}`, `{"width":1,"buckets":4,"counts":[1]}`,
		`{"counts":{"9":1},"width":1,"buckets":4}`,
		`{"width":1,"width":2,"buckets":4}`, `{"width":1,"buckets":4,"counts":{},"counts":{}}`,
		`{"width":1,"Width":2,"buckets":4}`, `{"width":1,"buc` + "\u212a" + `ets":4}`,
		`{"width":1,"buckets":4,"overflow":null}`, `{"wid\u0074h":1,"buckets":4}`,
		`{"width":1,"buckets":4,"x":tru}`, `{"width":1,"buckets":4,"x":"` + "\x01" + `"}`,
		`{"width":1,"buckets":4,"x":"\q"}`, `{"width":1,"buckets":4,"x":"\u12g4"}`,
		`{"width":1,"buckets":4,"x":[1,]}`, `{"width":1,"buckets":4,"x":{"a" 1}}`,
		`{"width":1,"buckets":4,"x":-}`, `{"width":1,"buckets":4,"x":1.}`, `{"width":1,"buckets":4,"x":1e}`,
		`{"width":1,"buckets":4,"x":` + strings.Repeat("[", 10002) + strings.Repeat("]", 10002) + `}`,
	}
	for _, s := range append(stricter, malformed...) {
		h := Histogram{width: 3, size: 3, count: 3}
		if err := h.UnmarshalJSON([]byte(s)); err == nil {
			t.Errorf("accepted %s", s)
		} else if h.width != 3 || h.size != 3 || h.count != 3 || h.buckets != nil {
			t.Errorf("rejecting %s left the histogram modified: %+v", s, h)
		}
	}
}

// FuzzHistogramJSON holds the decoder to its contract on arbitrary bytes:
// either an error, or exactly the histogram the frozen reference decoder
// (encoding/json, a map, a dense array) makes of the same input — never a
// different one — whose MarshalJSON gives back the input byte for byte;
// and whatever either codec marshals, it accepts.
func FuzzHistogramJSON(f *testing.F) {
	for _, s := range shardHistograms(f) {
		f.Add([]byte(s))
		var indented bytes.Buffer
		if err := json.Indent(&indented, []byte(s), "", "  "); err != nil {
			f.Fatal(err)
		}
		f.Add(indented.Bytes())
	}
	for _, s := range []string{
		`{"max":7,"counts":{"7":1,"3":2},"sum":13,"count":3,"overflow":2,"buckets":8,"width":1}`,
		`{"width":1,"buckets":4,"future":{"a":[1,true,null,"x\n"]},"counts":{"3":9},"count":9,"sum":10,"max":9.75}`,
		`{"width":1,"buckets":4,"counts":{"2":5,"2":0,"1":1},"count":1,"sum":1,"max":1}`,
		`{"width":1,"width":2,"buckets":4,"buckets":5}`,
		`{"width":1,"buckets":4,"counts":null,"count":0,"sum":0,"max":0}`,
		`{"width":1,"buckets":4,"counts":{"9":1},"count":1}`,
		`{"width":1,"buckets":4,"counts":{"-1":1},"count":1}`,
		`{"width":1,"buckets":4,"counts":{"one":1,"01":2,"+1":3},"count":1}`,
		`{"counts":{"3":1},"Width":1,"BUCKETS":4}`,
		`{"width":0,"buckets":0}`,
		`{"width":2.5e-7,"buckets":1,"count":-0,"sum":1e+21,"max":1.5E-9}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Histogram
		var r refHistogram
		if err := h.UnmarshalJSON(data); err != nil {
			// Rejected. What the reference makes of the input, if anything,
			// is then a MarshalJSON output, which must not be.
			if r.tryUnmarshal(data) == nil {
				requireReadsOwnBytes(t, &r)
			}
			return
		}
		if h.size > 1<<20 {
			return // the reference would allocate the whole nominal shape
		}
		if err := r.UnmarshalJSON(data); err != nil {
			t.Fatalf("accepted what the reference rejects (%v): %s", err, data)
		}
		requireSameAsReference(t, "decoded", &h, &r)
		if back, err := h.MarshalJSON(); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted %s\nwhich marshals back to %s (%v)", data, back, err)
		}
		requireReadsOwnBytes(t, &r)
	})
}

// tryUnmarshal is the reference decoder guarded against the one input it
// cannot survive: a nominal shape too large to allocate densely.
func (h *refHistogram) tryUnmarshal(data []byte) error {
	var shape struct{ Buckets float64 }
	if err := json.Unmarshal(data, &shape); err != nil {
		return err
	}
	if shape.Buckets > 1<<20 {
		return os.ErrInvalid
	}
	return h.UnmarshalJSON(data)
}

// requireReadsOwnBytes marshals the reference and requires the decoder to
// read those bytes back to the same histogram.
func requireReadsOwnBytes(t *testing.T, r *refHistogram) {
	t.Helper()
	data, err := r.MarshalJSON()
	if err != nil {
		return // NaN or Inf: no wire form
	}
	var h Histogram
	if err := h.UnmarshalJSON(data); err != nil {
		t.Fatalf("rejected MarshalJSON output (%v): %s", err, data)
	}
	requireSameAsReference(t, "reread", &h, r)
}
