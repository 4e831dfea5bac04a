package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	xs := make([]float64, 101)
	for i := range xs {
		xs[100-i] = float64(i) // descending: percentile must not rely on order
	}
	for _, p := range []float64{0, 25, 50, 99, 100} {
		if got := percentile(xs, p); !near(got, p) {
			t.Errorf("percentile(0..100, %v) = %v", p, got)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, never above the cap, never below the median.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, // too few samples for any tail
		{21, 50},     // exactly ten beyond the median
		{101, 90},    // ten of 101 lie beyond p90
		{1001, 99},   // ten of 1001 lie beyond p99
		{100001, 99}, // capped
		{501, 98},    // ten of 501 lie beyond p98
	} {
		if got := tailPercentile(c.n, 99); !near(got, c.want) {
			t.Errorf("tailPercentile(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule itself: with the samples 0..n-1, exactly ten lie beyond.
	n := 345
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	cut := percentile(xs, tailPercentile(n, 99.9))
	beyond := 0
	for _, x := range xs {
		if x > cut+1e-9 {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the tail percentile, want %d", beyond, tailBeyond)
	}
}

// quartileSpread must place quartiles as Python's
// statistics.quantiles(values, n=4) does: for 1..10 they are 2.75 and
// 8.25, for these five values 1.5 and 8.0.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	ys := []float64{1, 2, 4, 7, 9}
	if got, want := quartileSpread(ys), (8.0-1.5)/4.0; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// A service slower than its schedule: one connection, a request every
// 10 ms, each taking 25 ms. Latency is timed from the due time, so it
// grows by the 15 ms the service falls behind on every request, and the
// generator's lateness is that backlog.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	var now time.Duration
	c := clock{
		now:   func() time.Duration { return now },
		sleep: func(d time.Duration) { now += d },
	}
	const interval, service = 10 * time.Millisecond, 25 * time.Millisecond
	samples := openLoop(4, interval, 1, c, func(i int) bool {
		now += service
		return i != 2
	})
	for i, s := range samples {
		wantDue := time.Duration(i) * interval
		wantStart := time.Duration(i) * service
		if s.due != wantDue || s.start != wantStart || s.end != wantStart+service {
			t.Errorf("request %d: due %v start %v end %v, want %v %v %v", i, s.due, s.start, s.end, wantDue, wantStart, wantStart+service)
		}
		if got, want := s.late(), time.Duration(i)*(service-interval); got != want {
			t.Errorf("request %d late %v, want %v", i, got, want)
		}
		if got, want := s.latency(), service+time.Duration(i)*(service-interval); got != want {
			t.Errorf("request %d latency %v, want %v", i, got, want)
		}
		if s.ok != (i != 2) {
			t.Errorf("request %d ok = %v", i, s.ok)
		}
	}
	// A service faster than its schedule waits for each due time.
	now = 0
	samples = openLoop(3, interval, 1, c, func(int) bool { now += time.Millisecond; return true })
	for i, s := range samples {
		if s.late() != 0 || s.latency() != time.Millisecond {
			t.Errorf("fast request %d: late %v latency %v", i, s.late(), s.latency())
		}
	}
}

// Self time is duration minus child coverage minus the span cost: a
// begin/end child costs its parent cost.out and itself cost.in; a phase
// costs itself cost.phase and its parent nothing.
func TestSelfTimesNestedChildren(t *testing.T) {
	cost := spanCost{in: 2, out: 3, phase: 5}
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 1000},
		{name: "phaseA", parent: 0, phase: true, start: 0, end: 400},
		{name: "child", parent: 1, start: 100, end: 200},
		{name: "grandchild", parent: 2, start: 120, end: 150},
		{name: "child", parent: 1, start: 250, end: 300},
		{name: "phaseB", parent: 0, phase: true, start: 400, end: 1000},
	}
	st := selfTimes(spans, cost)
	want := map[string]layerTime{
		"root":       {count: 1, selfNs: 1000 - 400 - 600},              // phases tile it
		"phaseA":     {count: 1, selfNs: 400 - 100 - 50 - 2*3 - 5},      // two children, own phase cost
		"child":      {count: 2, selfNs: (100 - 30 - 3 - 2) + (50 - 2)}, // one holds the grandchild
		"grandchild": {count: 1, selfNs: 30 - 2},
		"phaseB":     {count: 1, selfNs: 600 - 5},
	}
	var sum float64
	for name, w := range want {
		got := st[name]
		if got == nil || got.count != w.count || !near(got.selfNs, w.selfNs) {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
			continue
		}
		sum += got.selfNs
	}
	// Everything the root covered is some span's self time or span cost:
	// two phases, three begin/end spans.
	if wantSum := 1000 - 2*cost.phase - 3*(cost.in+cost.out); !near(sum, wantSum) {
		t.Errorf("self times sum to %v, want %v", sum, wantSum)
	}
}

func TestTracerStackAndInSituCost(t *testing.T) {
	tr := newTracer(64)
	if len(tr.spans) != 0 || tr.cur != -1 {
		t.Fatalf("calibration left %d spans, cur %d", len(tr.spans), tr.cur)
	}
	if tr.cost.in <= 0 || tr.cost.phase <= 0 {
		t.Errorf("calibrated cost %+v", tr.cost)
	}
	at := tr.now()
	root := tr.open("root", at, false)
	a := tr.open("a", at, true)
	b := tr.begin("b")
	tr.end(b)
	at = tr.close(a)
	c := tr.open("c", at, true)
	at = tr.close(c)
	tr.closeAt(root, at)
	for i, p := range []int32{-1, root, a, root} {
		if tr.spans[i].parent != p {
			t.Errorf("span %d parent %d, want %d", i, tr.spans[i].parent, p)
		}
	}
	if tr.spans[c].start != tr.spans[a].end || tr.spans[root].end != tr.spans[c].end {
		t.Error("adjacent phases do not share their timestamp")
	}
	if tr.cur != -1 {
		t.Errorf("stack not unwound: cur %d", tr.cur)
	}

	spans := []span{
		{name: spCycle, parent: -1, start: 0, end: 500},
		{name: spNullPhase, parent: 0, phase: true, start: 0, end: 40},
		{name: spNullParent, parent: 0, phase: true, start: 40, end: 160},
		{name: spNullChild, parent: 2, start: 90, end: 120},
		{name: spCycle, parent: -1, start: 1000, end: 90000}, // preempted
		{name: spNullPhase, parent: 4, phase: true, start: 1000, end: 80000},
	}
	kept, dropped := dropPreempted(spans, 20000)
	if dropped != 1 || len(kept) != 4 {
		t.Fatalf("dropPreempted kept %d spans, dropped %d cycles", len(kept), dropped)
	}
	got := costInSitu(kept, spanCost{})
	if want := (spanCost{in: 30, out: 120 - 40 - 30, phase: 40}); got != want {
		t.Errorf("costInSitu = %+v, want %+v", got, want)
	}
	if fb := (spanCost{in: 1, out: 2, phase: 3}); costInSitu(spans[:1], fb) != fb {
		t.Error("costInSitu without empty spans must fall back")
	}
}

func TestCompareMetricVerdicts(t *testing.T) {
	higher := metricDef{Name: mWork, Better: "higher", Bound: 0.10}
	lower := metricDef{Name: mWait, Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 75, 130, 90, 120, 70, 110, 100}
	for _, c := range []struct {
		name string
		m    metricDef
		a, b []float64
		want string
	}{
		{"same", higher, steady, steady, verdictOK},
		{"throughput down 5%", higher, steady, scale(steady, 0.95), verdictOK},
		{"throughput down 20%", higher, steady, scale(steady, 0.80), verdictBreach},
		{"throughput up 20%", higher, steady, scale(steady, 1.20), verdictOK},
		{"latency up 20%", lower, steady, scale(steady, 1.20), verdictBreach},
		{"latency down 20%", lower, steady, scale(steady, 0.80), verdictOK},
		{"too noisy to tell", lower, steady, noisy, verdictUnresolved},
	} {
		if got := compareMetric(c.m, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %s (worse %.3f, spread %.3f), want %s", c.name, got.verdict, got.worse, got.spread, c.want)
		}
	}
}

// BENCHMARK.json at the root of the repository and the tables in
// metrics.go describe the same benchmark, within the driver's limits.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	var bj struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, metrics.go %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	sameMetrics := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range want {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: bad unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if got[i] != m {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go %+v", kind, i, got[i], m)
			}
		}
	}
	sameMetrics("end_to_end", bj.EndToEnd, endToEnd)
	sameMetrics("per_layer", bj.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == mSetup && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// A test-sized pass of every workload, untraced and traced. The traced
// simulation passes include the rig-equivalence check (the rig's cycles,
// per-thread instructions, actions and activations equal
// sim.System.Run()'s) and the span-cost reconciliation.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			tmp := t.TempDir()
			e := &env{workload: w.Name, seed: 3, seconds: 0.2, trace: traced, smoke: true, tmp: tmp, out: tmp}
			res, o := runWorkload(w, e)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d failed", w.Name, traced, res.Failed, res.Attempted)
			}
			if traced {
				if len(res.Metrics) != len(perLayer) {
					t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(res.Metrics), len(perLayer))
				}
				if _, isSim := simCases[w.Name]; isSim && !simCases[w.Name].sampled {
					for _, m := range []string{"sim.cycles", "memsys.share", "cpu.share", "cache.share", "memctrl.total_acts", "sim.rig_overhead_ratio"} {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("%s: %s = %v", w.Name, m, res.Metrics[m].Value)
						}
					}
				}
				continue
			}
			if len(o.setups) == 0 {
				t.Errorf("%s: no set-up timed", w.Name)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.Name]; !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s: %s = %+v", w.Name, m.Name, v)
				}
			}
		}
	}
}
