// Package sourcetest is the conformance harness for workload.Source
// implementations: every source — synthetic class generators, trace
// replay cursors, adaptive scenario strategies — must be deterministic
// under a fixed seed, confine its addresses to its thread's
// address-space slice, and round-trip its spec through JSON without
// changing its canonical encoding (the fingerprint contract). Source
// packages call Run from their tests for each spec they ship.
package sourcetest

import (
	"bytes"
	"encoding/json"
	"testing"

	"breakhammer/internal/workload"
)

// pulls is how many records Run draws from each source: enough to cross
// rotation phases, feedback deliveries and footprint wrap-arounds.
const pulls = 4096

// feedbackEvery is the synthetic feedback cadence, in pulls: observers
// see a deterministic schedule of scores, suspect marks and quota
// changes interleaved with the stream, so adaptive sources are
// exercised through their state machines, not just their initial mode.
const feedbackEvery = 256

// record is one captured Source emission.
type record struct {
	bubbles int64
	line    uint64
	write   bool
}

// Run asserts the Source conformance contract for one spec:
//
//  1. Determinism — two independently built sources for the same
//     (spec, thread), driven through the same synthetic feedback
//     schedule, emit byte-identical streams.
//  2. Confinement — every emitted line address lies in the thread's
//     slice [BaseLine(thread), BaseLine(thread)+ThreadSpanLines).
//  3. Fingerprint round-trip — the spec's JSON encoding survives a
//     decode/re-encode cycle byte-identically, so the spec contributes
//     a stable canonical fingerprint to sim.Fingerprint.
//
// Specs naming a scenario strategy need the strategy registered first
// (import breakhammer/internal/scenario from the test).
func Run(t *testing.T, spec workload.Spec) {
	t.Helper()
	for _, thread := range []int{0, 3} {
		a := draw(t, spec, thread, pulls)
		b := draw(t, spec, thread, pulls)
		if len(a) != len(b) {
			t.Fatalf("%s thread %d: two builds drew %d vs %d records", spec.Name, thread, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s thread %d: record %d diverged between two builds: %+v vs %+v",
					spec.Name, thread, i, a[i], b[i])
			}
		}
		confined(t, spec, thread, a)
	}
	roundTrip(t, spec)
}

// Confined asserts the confinement contract alone over a longer stream:
// n records drawn from a fresh source for (spec, thread), driven through
// the same synthetic feedback schedule, all lie in the thread's slice.
func Confined(t *testing.T, spec workload.Spec, thread, n int) {
	t.Helper()
	confined(t, spec, thread, draw(t, spec, thread, n))
}

func confined(t *testing.T, spec workload.Spec, thread int, recs []record) {
	t.Helper()
	base := workload.BaseLine(thread)
	for i, r := range recs {
		if r.line < base || r.line >= base+workload.ThreadSpanLines {
			t.Fatalf("%s thread %d: record %d line %#x escapes the thread's slice [%#x, %#x)",
				spec.Name, thread, i, r.line, base, base+workload.ThreadSpanLines)
		}
	}
}

// draw builds a fresh source for (spec, thread) and captures n records of
// its stream, delivering the synthetic feedback schedule to observers.
func draw(t *testing.T, spec workload.Spec, thread, n int) []record {
	t.Helper()
	src, err := workload.NewSource(spec, thread)
	if err != nil {
		t.Fatalf("%s thread %d: NewSource: %v", spec.Name, thread, err)
	}
	obs, _ := src.(workload.FeedbackObserver)
	out := make([]record, 0, n)
	for i := 0; i < n; i++ {
		if obs != nil && i%feedbackEvery == 0 {
			obs.ObserveFeedback(syntheticFeedback(i / feedbackEvery))
		}
		bubbles, line, write := src.Next()
		out = append(out, record{bubbles, line, write})
	}
	return out
}

// syntheticFeedback fabricates the n-th feedback delivery: a fixed,
// seed-free schedule that sweeps the signals an adaptive source reads —
// the score ramps up and resets like a throttling window, the suspect
// mark and a quota squeeze fire on one delivery in eight, and latency
// degrades while the source is "suspected".
func syntheticFeedback(n int) workload.Feedback {
	phase := n % 8
	fb := workload.Feedback{
		Cycle:           int64(n+1) * 4096,
		Interval:        4096,
		Retired:         int64(1000 + 100*phase),
		IPC:             0.5 + 0.05*float64(phase),
		AvgLatencyNs:    80 + 10*float64(phase),
		Score:           float64(5 * phase),
		Quota:           32,
		FullQuota:       32,
		Threat:          32,
		RefreshInterval: 9360,
		RefreshWindow:   9360 * 8192,
	}
	if phase == 7 {
		fb.Suspect = true
		fb.Quota = 3
		fb.AvgLatencyNs *= 4
	}
	return fb
}

// roundTrip asserts the spec's canonical-JSON stability: encode, decode
// into a fresh Spec, encode again, and require identical bytes. A field
// that marshals non-deterministically, or decodes into a different
// shape than it encoded from, would fork sim.Fingerprint between a spec
// and its stored copy.
func roundTrip(t *testing.T, spec workload.Spec) {
	t.Helper()
	first, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("%s: marshal: %v", spec.Name, err)
	}
	var decoded workload.Spec
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatalf("%s: unmarshal: %v", spec.Name, err)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatalf("%s: re-marshal: %v", spec.Name, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%s: spec JSON does not round-trip:\n first: %s\nsecond: %s", spec.Name, first, second)
	}
}
