package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share id (the sampled cycle number, the point's sequence number, the
// request's sequence number); parent indexes the span that caused this
// one (-1 for a root).
type span struct {
	name       string
	id         int64
	parent     int32
	phase      bool  // opened on a timestamp shared with the previous phase
	start, end int64 // ns since the tracer's epoch
}

// spanCost is the bookkeeping cost of recording spans, so it can be taken
// out of what the spans measured. A begin/end span reads the clock twice:
// in is the part of that cost lying between its own two timestamps, out
// the part its parent sees. A phase span shares its start with the
// previous phase's end, so its whole cost (phase) lies inside its own
// interval.
type spanCost struct {
	in, out, phase float64 // ns
}

// tracer keeps spans in memory until the pass ends. begin/end/open/close
// maintain a current-parent stack and must stay on one goroutine (the
// simulation rig); record is safe for concurrent use (request handlers,
// fleet workers).
type tracer struct {
	epoch time.Time
	cost  spanCost

	on  bool  // the rig is inside a sampled cycle
	cur int32 // innermost open span, -1 outside
	id  int64 // id stamped on spans begun now

	mu    sync.Mutex
	spans []span
}

func newTracer(capHint int) *tracer {
	t := &tracer{epoch: time.Now(), cur: -1, spans: make([]span, 0, capHint)}
	// Touch every page now: a first-touch page fault inside a span would
	// be charged to whatever layer was being timed.
	all := t.spans[:capHint]
	for i := 0; i < len(all); i += 32 {
		all[i].parent = -1
	}
	t.calibrate()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a child of the current span, reading the clock.
func (t *tracer) begin(name string) int32 {
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: t.id, parent: t.cur})
	t.cur = idx
	t.spans[idx].start = t.now()
	return idx
}

// end closes a span opened by begin, reading the clock.
func (t *tracer) end(idx int32) {
	s := &t.spans[idx]
	s.end = t.now()
	t.cur = s.parent
}

// open opens a child of the current span at a timestamp the caller
// already holds (the previous phase's end), without reading the clock.
func (t *tracer) open(name string, at int64, phase bool) int32 {
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, id: t.id, parent: t.cur, phase: phase, start: at})
	t.cur = idx
	return idx
}

// close ends a span opened by open and returns the timestamp, which the
// next phase reuses as its start.
func (t *tracer) close(idx int32) int64 {
	s := &t.spans[idx]
	s.end = t.now()
	t.cur = s.parent
	return s.end
}

// closeAt ends a span at a timestamp the caller already holds.
func (t *tracer) closeAt(idx int32, at int64) {
	s := &t.spans[idx]
	s.end = at
	t.cur = s.parent
}

// record adds a finished span from any goroutine and returns its index,
// usable as the parent of later spans.
func (t *tracer) record(name string, id int64, parent int32, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// calibrate measures the cost of empty spans in a tight loop and resets
// the tracer. It runs before anything is recorded; the rig replaces the
// result with costInSitu's.
func (t *tracer) calibrate() {
	const batches, n = 41, 500 // medians over batches shrug off preemption
	saved := t.spans
	if cap(t.spans) < 2*batches*n+1 {
		t.spans = make([]span, 0, 2*batches*n+1)
	}
	root := t.begin("calibrate")
	var ins, totals, phases []float64
	for b := 0; b < batches; b++ {
		first := len(t.spans)
		wall0 := t.now()
		for i := 0; i < n; i++ {
			t.end(t.begin("empty"))
		}
		wall1 := t.now()
		var in float64
		for _, s := range t.spans[first:] {
			in += float64(s.end - s.start)
		}
		ins = append(ins, in/n)
		totals = append(totals, float64(wall1-wall0)/n)

		first = len(t.spans)
		at := t.now()
		for i := 0; i < n; i++ {
			at = t.close(t.open("empty", at, true))
		}
		var ph float64
		for _, s := range t.spans[first:] {
			ph += float64(s.end - s.start)
		}
		phases = append(phases, ph/n)
	}
	t.end(root)
	t.cost.in = median(ins)
	t.cost.out = math.Max(median(totals)-t.cost.in, 0)
	t.cost.phase = median(phases)

	t.spans = saved[:0]
	t.cur = -1
}

// costInSitu derives the span cost from the empty spans the rig records
// at the end of every sampled cycle, where a span costs what it costs
// between real ticks rather than in a tight loop: an empty phase lasts
// cost.phase, an empty child lasts cost.in, and an empty phase holding
// one empty child lasts cost.phase + cost.in + cost.out. Means, because
// the per-layer numbers they correct are means too and a span's cost has
// a long right tail. It falls back to the start-up calibration when the
// spans hold no empty ones.
func costInSitu(spans []span, fallback spanCost) spanCost {
	var phase, parent, child float64
	var n int
	for i := range spans {
		s := &spans[i]
		d := float64(s.end - s.start)
		switch s.name {
		case spNullPhase:
			phase += d
			n++
		case spNullParent:
			parent += d
		case spNullChild:
			child += d
		}
	}
	if n == 0 {
		return fallback
	}
	c := spanCost{in: child / float64(n), phase: phase / float64(n)}
	c.out = math.Max(parent/float64(n)-c.phase-c.in, 0)
	return c
}

// dropPreempted removes every sampled cycle (a root span and all its
// descendants) whose root lasted longer than limitNs: no simulated cycle
// takes that long, so the host descheduled the process inside it. It
// reports how many cycles it dropped.
func dropPreempted(spans []span, limitNs int64) ([]span, int) {
	drop := make([]bool, len(spans))
	remap := make([]int32, len(spans))
	kept := spans[:0:0]
	dropped := 0
	for i := range spans {
		s := spans[i]
		if s.parent < 0 {
			drop[i] = s.end-s.start > limitNs
			if drop[i] {
				dropped++
			}
		} else {
			drop[i] = drop[s.parent]
		}
		if drop[i] {
			continue
		}
		remap[i] = int32(len(kept))
		if s.parent >= 0 {
			s.parent = remap[s.parent]
		}
		kept = append(kept, s)
	}
	return kept, dropped
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count  int64
	selfNs float64 // duration minus child coverage minus span cost
}

// selfTimes computes, per span name, the time spent in the span itself:
// its duration minus the part its children cover, minus the span cost
// that falls inside that remainder.
func selfTimes(spans []span, cost spanCost) map[string]*layerTime {
	childDur := make([]float64, len(spans))
	childOut := make([]float64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.parent < 0 {
			continue
		}
		childDur[s.parent] += float64(s.end - s.start)
		if !s.phase {
			childOut[s.parent] += cost.out
		}
	}
	out := map[string]*layerTime{}
	for i := range spans {
		s := &spans[i]
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		dur := float64(s.end - s.start)
		own := cost.in
		switch {
		case s.phase:
			own = cost.phase
		case s.parent < 0:
			own = 0 // roots are opened and closed on timestamps their phases share
		}
		lt.count++
		lt.selfNs += dur - childDur[i] - childOut[i] - own
	}
	return out
}

// writeSpans writes the spans as CSV under dir, one row per span.
func writeSpans(dir, file string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("span,name,id,parent,start_ns,end_ns\n")
	var buf []byte
	for i := range spans {
		s := &spans[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		buf = append(buf, s.name...)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.id, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, '\n')
		w.Write(buf)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
