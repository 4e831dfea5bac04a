package exp

import (
	"strings"
	"testing"

	"breakhammer/internal/sampling"
	"breakhammer/internal/sim"
)

// samplingTestOptions pins a one-mechanism, one-threshold grid so the
// validation harness runs two points (exact + sampled) per call.
func samplingTestOptions() Options {
	o := DefaultOptions()
	o.Base = sim.FastConfig()
	o.MixesPerGroup = 1
	o.NRHs = []int{1024}
	o.Mechanisms = []string{"graphene"}
	return o
}

// TestSamplingValidation runs the harness end to end: every metric row
// must carry a verdict and land in band at CI scale, the speedup row
// must be present, and a second call must be served entirely from the
// store (zero additional simulations — the warm-rerun contract the CI
// smoke job greps for).
func TestSamplingValidation(t *testing.T) {
	r := NewRunner(samplingTestOptions())
	table, err := r.SamplingValidation()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("validation table is empty")
	}
	var metricRows, speedupRows int
	for _, row := range table.Rows {
		switch row[2] {
		case "speedup":
			speedupRows++
		default:
			metricRows++
			if row[7] != "ok" {
				t.Errorf("metric out of band: %v", row)
			}
		}
	}
	if metricRows == 0 || speedupRows == 0 {
		t.Fatalf("missing rows: %d metric, %d speedup (table: %v)", metricRows, speedupRows, table.Rows)
	}
	ran := r.Executed()
	if ran == 0 {
		t.Fatal("cold validation simulated nothing")
	}
	if _, err := r.SamplingValidation(); err != nil {
		t.Fatal(err)
	}
	if got := r.Executed(); got != ran {
		t.Fatalf("warm rerun simulated %d extra points", got-ran)
	}
}

// TestSamplingExperimentRegistered checks the catalogue entry.
func TestSamplingExperimentRegistered(t *testing.T) {
	e, ok := ExperimentByName("sampling")
	if !ok {
		t.Fatal("experiment \"sampling\" not in catalogue")
	}
	if e.Static {
		t.Fatal("sampling validation marked static")
	}
}

// TestOptionSpecSampling checks the flag-level plumbing: -sample turns
// on base-config sampling with the given windows, window flags without
// -sample are rejected, and the default resolution leaves sampling off.
func TestOptionSpecSampling(t *testing.T) {
	o, err := OptionSpec{Sample: true, Warmup: 100, Detail: 200, FF: 300}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := sampling.Params{Enabled: true, WarmupCycles: 100, DetailCycles: 200, FFCycles: 300}
	if o.Base.Sampling != want {
		t.Fatalf("resolved sampling = %+v, want %+v", o.Base.Sampling, want)
	}
	if _, err := (OptionSpec{Detail: 200}).Resolve(); err == nil {
		t.Fatal("window sizes without Sample were accepted")
	}
	o, err = OptionSpec{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o.Base.Sampling.Enabled {
		t.Fatal("default spec enables sampling")
	}
}

// TestSampledSweepRunsBlockHammerExact is `bhsweep -sample -figs 18`: the
// figure renders, and its blockhammer column — which sim.Config.Validate
// refuses to sample, since no ActGate runs in fast-forward — is simulated
// exact under the exact sweep's store keys, so it reuses exact records.
func TestSampledSweepRunsBlockHammerExact(t *testing.T) {
	spec := OptionSpec{Preset: "quick", Insts: 60_000, NRHs: "256", Mechanisms: "graphene",
		Sample: true, Warmup: 2_000, Detail: 8_000, FF: 40_000}
	sampledOpts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	spec.Sample, spec.Warmup, spec.Detail, spec.FF = false, 0, 0, 0
	exactOpts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	sampled, exact := NewRunner(sampledOpts), NewRunner(exactOpts)
	points := sampled.PointsFor([]string{"18"})
	var blockhammer int
	for _, p := range points {
		if p.Mech != "blockhammer" {
			continue
		}
		blockhammer++
		sk, err := sampled.PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		if ek, _ := exact.PointKey(p); sk != ek || sampled.configFor(p).Sampling.Enabled {
			t.Errorf("%v: keyed %.12s in the sampled sweep, %.12s in the exact one (sampling %+v)", p, sk, ek, sampled.configFor(p).Sampling)
		}
	}
	if blockhammer == 0 {
		t.Fatal("figure 18 reads no blockhammer point")
	}
	if err := sampled.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	tb, err := sampled.Figure18()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 || tb.Header[len(tb.Header)-1] != "blockhammer" {
		t.Fatalf("figure 18 rendered without its blockhammer column:\n%s", tb)
	}
}

// TestPrefetchEventsSampled checks that progress events from a sampled
// sweep carry the marker and an exact sweep's do not, and that a
// sampling-validation twin's events say what the twin runs, whatever the
// sweep does.
func TestPrefetchEventsSampled(t *testing.T) {
	for _, sampledSweep := range []bool{false, true} {
		o := samplingTestOptions()
		if sampledSweep {
			o.Base.Sampling = sampling.Params{Enabled: true, WarmupCycles: 2_000, DetailCycles: 8_000, FFCycles: 40_000}
		}
		r := NewRunner(o)
		points := []Point{{Mech: "graphene", NRH: 1024, Attack: true},
			{Mech: "graphene", NRH: 1024, BH: true, Attack: true, Sampling: SamplingExact},
			{Mech: "graphene", NRH: 1024, BH: true, Attack: true, Sampling: SamplingSampled}}
		var events []Event
		if err := r.PrefetchContext(t.Context(), points, func(e Event) { events = append(events, e) }); err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatal("no progress events")
		}
		for _, e := range events {
			want := sampledSweep
			if e.Point.Sampling != "" {
				want = e.Point.Sampling == SamplingSampled
			}
			if e.Sampled != want {
				t.Fatalf("sampledSweep=%v: event %+v has Sampled=%v", sampledSweep, e, e.Sampled)
			}
		}
	}
}

// TestSamplingValidationNote pins the note's self-description (window
// sizes and tolerance), which EXPERIMENTS.md tells readers to check.
func TestSamplingValidationNote(t *testing.T) {
	r := NewRunner(samplingTestOptions())
	table, err := r.SamplingValidation()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"warmup=", "detail=", "ff=", "in-band"} {
		if !strings.Contains(table.Note, frag) {
			t.Fatalf("note %q missing %q", table.Note, frag)
		}
	}
}
