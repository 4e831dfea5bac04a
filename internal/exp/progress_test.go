package exp

import (
	"context"
	"errors"
	"flag"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"breakhammer/internal/results"
	"breakhammer/internal/sim"
)

// tinyOptions returns the smallest useful sweep configuration: figure
// "13" enumerates two points per mechanism at one N_RH.
func tinyOptions() Options {
	o := testOptions()
	o.Mechanisms = []string{"rfm"}
	o.NRHs = []int{128}
	return o
}

// TestPrefetchEmitsTypedEvents: every point produces exactly one started
// and one finished event, in a serialized stream with coherent counters;
// simulated points report wall-clock, cached reruns report cached.
func TestPrefetchEmitsTypedEvents(t *testing.T) {
	r := NewRunner(tinyOptions())
	points := r.PointsFor([]string{"13"})
	var events []Event
	r.SetProgress(func(e Event) { events = append(events, e) })
	if err := r.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	var started, finished int
	lastDone := 0
	for _, e := range events {
		switch e.Type {
		case PointStarted:
			started++
			if e.Total != len(points) || e.Label == "" {
				t.Errorf("started event malformed: %+v", e)
			}
		case PointFinished:
			finished++
			if e.Done != lastDone+1 {
				t.Errorf("finished events out of order: done=%d after %d", e.Done, lastDone)
			}
			lastDone = e.Done
			if e.Cached {
				t.Errorf("cold run reported %s as cached", e.Label)
			}
			if e.Elapsed() <= 0 {
				t.Errorf("simulated point %s has no wall-clock", e.Label)
			}
		default:
			t.Errorf("unknown event type %q", e.Type)
		}
	}
	if started != len(points) || finished != len(points) {
		t.Fatalf("got %d started / %d finished events for %d points", started, finished, len(points))
	}

	// Warm rerun: same stream shape, everything cached.
	events = nil
	if err := r.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Type == PointFinished && !e.Cached {
			t.Errorf("warm run simulated %s", e.Label)
		}
	}
}

// TestPrefetchETA: with one worker and several missing points, interior
// finished events project the remaining wall-clock; the last one
// projects nothing.
func TestPrefetchETA(t *testing.T) {
	r := NewRunner(tinyOptions())
	r.SetJobs(1)
	points := r.PointsFor([]string{"13"})
	if len(points) < 2 {
		t.Fatalf("need >= 2 points, got %d", len(points))
	}
	var finished []Event
	r.SetProgress(func(e Event) {
		if e.Type == PointFinished {
			finished = append(finished, e)
		}
	})
	if err := r.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	for _, e := range finished[:len(finished)-1] {
		if e.ETA() <= 0 {
			t.Errorf("interior event %d/%d has no ETA", e.Done, e.Total)
		}
	}
	if last := finished[len(finished)-1]; last.ETA() != 0 {
		t.Errorf("final event projects %v remaining", last.ETA())
	}
}

// TestPrefetchETASeededFromStore: a fresh runner over a partially warmed
// directory projects from the timings recorded by the earlier run — its
// very first finished event already carries an ETA, before this process
// has any wall-clock sample of its own.
func TestPrefetchETASeededFromStore(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOptions()
	opts.Mechanisms = []string{"rfm", "graphene"} // 4 points for figure 13
	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	all := r1.PointsFor([]string{"13"})
	if len(all) < 4 {
		t.Fatalf("need >= 4 points, got %d", len(all))
	}
	if err := r1.Prefetch(all[:1]); err != nil {
		t.Fatal(err)
	}
	key, err := results.Key(r1.configFor(all[0]), r1.mixes(all[0].Attack))
	if err != nil {
		t.Fatal(err)
	}

	// New process, same directory: the warmed point's timing is on disk,
	// and with >= 2 points still missing even the first finished event —
	// whichever point it is — leaves work outstanding, so the seeded
	// estimator must project.
	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store2.Elapsed(key); !ok {
		t.Fatal("per-point timing did not persist")
	}
	r2 := NewRunnerWithStore(opts, store2)
	r2.SetJobs(1)
	var finished []Event
	r2.SetProgress(func(e Event) {
		if e.Type == PointFinished {
			finished = append(finished, e)
		}
	})
	if err := r2.Prefetch(all); err != nil {
		t.Fatal(err)
	}
	if len(finished) == 0 {
		t.Fatal("no finished events")
	}
	if finished[0].ETA() <= 0 {
		t.Errorf("first finished event has no store-seeded ETA: %+v", finished[0])
	}
}

// TestPrefetchContextCancel: cancelling stops new points; the error
// surfaces.
func TestPrefetchContextCancel(t *testing.T) {
	r := NewRunner(tinyOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := r.PrefetchContext(ctx, r.PointsFor([]string{"13"}), nil)
	if err == nil {
		t.Fatal("cancelled prefetch returned nil")
	}
	if got := r.Executed(); got != 0 {
		t.Errorf("cancelled-before-start prefetch simulated %d points", got)
	}
}

// TestPrefetchCollectsPointFailures: a failing point must not abort the
// sweep — the good points still simulate and persist, the failures come
// back aggregated as a *SweepError, and the failed point's finished
// event carries the error message.
func TestPrefetchCollectsPointFailures(t *testing.T) {
	r := NewRunner(tinyOptions())
	good := r.PointsFor([]string{"13"})
	bad := Point{Mech: "bogus", NRH: 128}
	var events []Event
	r.SetProgress(func(e Event) { events = append(events, e) })
	err := r.Prefetch(append([]Point{bad}, good...))
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("got %v (%T), want *SweepError", err, err)
	}
	if len(se.Failures) != 1 || se.Total != len(good)+1 {
		t.Fatalf("SweepError = %d/%d failures, want 1/%d", len(se.Failures), se.Total, len(good)+1)
	}
	if se.Failures[0].Point != bad {
		t.Errorf("failure names %v, want %v", se.Failures[0].Point, bad)
	}
	// Every good point simulated and persisted despite the failure.
	if got, want := r.Executed(), int64(len(good)); got != want {
		t.Errorf("sweep simulated %d good points, want %d", got, want)
	}
	for _, p := range good {
		key, kerr := r.PointKey(p)
		if kerr != nil {
			t.Fatal(kerr)
		}
		if !r.Store().Has(key) {
			t.Errorf("good point %v missing from the store after the failed sweep", p)
		}
	}
	var failedEvents int
	for _, e := range events {
		if e.Type == PointFinished && e.Error != "" {
			failedEvents++
			if e.Point != bad {
				t.Errorf("error event names %v, want %v", e.Point, bad)
			}
		}
	}
	if failedEvents != 1 {
		t.Errorf("got %d finished events carrying errors, want 1", failedEvents)
	}
}

// TestConcurrentPrefetchSharesSimulations: two runners on one cache
// directory (two workers of a fleet) racing to prefetch and render the
// same figure must simulate each point exactly once between them — the
// in-flight claim files make the loser wait and read the winner's record
// from disk. "sampling" and "sec5" are the figures whose work once
// bypassed the queue: both runners simulated it, unclaimed, at render.
func TestConcurrentPrefetchSharesSimulations(t *testing.T) {
	for _, name := range []string{"13", "sampling", "sec5"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := tinyOptions()
			mk := func() *Runner {
				store, err := results.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return NewRunnerWithStore(opts, store)
			}
			r1, r2 := mk(), mk()
			e, _ := ExperimentByName(name)
			points := r1.PointsFor([]string{name})
			keyed, err := r1.keyPoints(points)
			if err != nil {
				t.Fatal(err)
			}
			if len(keyed.keys) == 0 {
				t.Fatalf("%s enumerates no points to share", name)
			}
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for i, r := range []*Runner{r1, r2} {
				wg.Add(1)
				go func(i int, r *Runner) {
					defer wg.Done()
					if errs[i] = r.Prefetch(points); errs[i] == nil {
						_, errs[i] = e.Run(r)
					}
				}(i, r)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("runner %d: %v", i, err)
				}
			}
			if got, want := r1.Executed()+r2.Executed(), int64(len(keyed.keys)); got != want {
				t.Errorf("two racing sweeps simulated %d points, want %d (claims failed to dedup)", got, want)
			}
		})
	}
}

// TestSlowPointSurvivesShortClaimTTL: the lease-heartbeat contract at
// the queue level. A consumer leases a point and then "simulates" for
// many times the lease TTL before completing it, heartbeating through
// the real keepAlive loop; a second sweep over the same cache directory
// arriving mid-hold must wait the whole time (the heartbeats keep the
// lease — and the claim file under it — fresh) and then serve the
// holder's record instead of stealing the claim and simulating the
// point again. Without heartbeats this required hand-tuning the TTL to
// the point's expected duration.
func TestSlowPointSurvivesShortClaimTTL(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOptions()
	// Generous relative to the ttl/4 heartbeat cadence so a starved
	// goroutine on a loaded CI runner cannot make the claim look stale.
	const ttl = 400 * time.Millisecond
	p := Point{Mech: "rfm", NRH: 128}
	open := func() *Runner {
		store, err := results.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return NewRunnerWithStore(opts, store)
	}
	holder, waiter := open(), open()
	hq, err := NewQueue(holder, []Point{p}, ttl, nil)
	if err != nil {
		t.Fatal(err)
	}
	lease, err := hq.Lease(context.Background(), "")
	if err != nil || lease.Token == "" {
		t.Fatalf("holder got no lease: %+v, %v", lease, err)
	}
	sentinel := []sim.MixResult{{Result: sim.Result{MixName: "slow-holder"}}}
	go func() {
		// The slow fake point: 4x the TTL of pure simulation time.
		stop := keepAlive(context.Background(), hq, lease)
		time.Sleep(4 * ttl)
		stop()
		err := hq.Complete(context.Background(), lease.Token,
			Completion{Key: lease.Key, Schema: results.SchemaVersion, ElapsedNS: int64(4 * ttl), Results: sentinel})
		if err != nil {
			t.Error(err)
		}
	}()

	wq, err := NewQueue(waiter, []Point{p}, ttl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := waiter.Drain(context.Background(), wq); err != nil {
		t.Fatal(err)
	}
	rs, ok := waiter.Store().Get(lease.Key)
	if !ok || len(rs) != 1 || rs[0].MixName != "slow-holder" {
		t.Fatalf("waiter got (%v, %d results), want the holder's record", ok, len(rs))
	}
	if st := wq.Status(); st.Cached != 1 {
		t.Errorf("waiter's queue finished the point as %+v, want cached", st)
	}
	if got := waiter.Executed(); got != 0 {
		t.Errorf("waiter simulated %d points despite the live lease, want 0", got)
	}
	if st := hq.Status(); st.Steals != 0 {
		t.Errorf("holder's lease was stolen %d times", st.Steals)
	}
}

// TestResetRecomputesDespiteDiskRecords: the -resume=false path. After
// store.Reset, a prefetch over a fully persisted sweep must re-simulate
// every point — in particular, the post-claim disk re-probe must not
// resurrect the invalidated records — and the recomputed records
// supersede the old ones for the next open.
func TestResetRecomputesDespiteDiskRecords(t *testing.T) {
	dir := t.TempDir()
	opts := tinyOptions()
	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	points := r1.PointsFor([]string{"13"})
	if err := r1.Prefetch(points); err != nil {
		t.Fatal(err)
	}

	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store2.Reset()
	r2 := NewRunnerWithStore(opts, store2)
	if err := r2.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	if got, want := r2.Executed(), int64(len(points)); got != want {
		t.Errorf("reset sweep executed %d points, want %d (disk records resurrected)", got, want)
	}

	// Both generations stay on disk; a fresh open loads them all and
	// serves the recomputed ones.
	store3, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := store3.Stats().Loaded, int64(4*len(points)); got != want { // a point + an elapsed record each, twice
		t.Errorf("fresh open loaded %d records, want %d", got, want)
	}
	for _, p := range points {
		key, err := r2.PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		got, ok3 := store3.Elapsed(key)
		want, ok2 := store2.Elapsed(key)
		if !ok3 || !ok2 || got != want {
			t.Errorf("point %s: fresh open serves elapsed %v (%v), want the recomputed %v (%v)", key[:8], got, ok3, want, ok2)
		}
		if _, ok := store3.Get(key); !ok {
			t.Errorf("point %s missing after a fresh open", key[:8])
		}
	}
}

// TestCoverage: cold 0/N, warm N/N; instrumented experiments count their
// cached table; static experiments report 0/0 (always ready).
func TestCoverage(t *testing.T) {
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWithStore(tinyOptions(), store)
	points := r.PointsFor([]string{"13"})

	cached, total, err := r.Coverage("13")
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 || total != len(points) {
		t.Errorf("cold coverage = %d/%d, want 0/%d", cached, total, len(points))
	}
	if err := r.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	cached, total, err = r.Coverage("13")
	if err != nil {
		t.Fatal(err)
	}
	if cached != total || total != len(points) {
		t.Errorf("warm coverage = %d/%d, want full", cached, total)
	}

	cached, total, err = r.Coverage("table3")
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 || total != 2 {
		t.Errorf("cold table3 coverage = %d/%d, want 0/2", cached, total)
	}
	if _, err := r.Table3(); err != nil {
		t.Fatal(err)
	}
	cached, total, err = r.Coverage("table3")
	if err != nil {
		t.Fatal(err)
	}
	if cached != 2 || total != 2 {
		t.Errorf("warm table3 coverage = %d/%d, want 2/2", cached, total)
	}

	cached, total, err = r.Coverage("table1")
	if err != nil || cached != 0 || total != 0 {
		t.Errorf("static coverage = %d/%d (%v), want 0/0", cached, total, err)
	}
}

// TestExperimentsCatalogue: the catalogue is complete, unique, and
// consistent with PointsFor's static/dynamic split.
func TestExperimentsCatalogue(t *testing.T) {
	all := Experiments()
	if len(all) != 23 {
		t.Fatalf("catalogue holds %d experiments, want 23", len(all))
	}
	r := NewRunner(QuickOptions())
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.Name] {
			t.Errorf("duplicate experiment %q", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q missing title or runner", e.Name)
		}
		points := r.PointsFor([]string{e.Name})
		if e.Static && len(points) > 0 {
			t.Errorf("static experiment %q needs simulations", e.Name)
		}
		if !e.Static && len(points) == 0 {
			t.Errorf("experiment %q marked dynamic but enumerates no points", e.Name)
		}
	}
	if _, ok := ExperimentByName("8"); !ok {
		t.Error("ExperimentByName missed figure 8")
	}
	if _, ok := ExperimentByName("nope"); ok {
		t.Error("ExperimentByName invented an experiment")
	}
}

// TestOptionSpecResolve: presets, overrides, and rejection of bad input.
func TestOptionSpecResolve(t *testing.T) {
	def, err := OptionSpec{}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if def.MixesPerGroup != DefaultOptions().MixesPerGroup {
		t.Error("empty spec does not resolve to the defaults")
	}
	paper, err := OptionSpec{Preset: "paper"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if paper.Base.TargetInsts != sim.DefaultConfig().TargetInsts {
		t.Error("paper preset not wired to sim.DefaultConfig scale")
	}
	if paper.MixesPerGroup != 15 || len(paper.NRHs) != 7 {
		t.Errorf("paper preset = %d mixes, %d thresholds; want 15 and 7", paper.MixesPerGroup, len(paper.NRHs))
	}
	o, err := OptionSpec{Preset: "quick", Mixes: 3, Channels: 2, Insts: 5000, NRHs: "512, 64", Mechanisms: "rfm, para"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o.MixesPerGroup != 3 || o.Base.Channels != 2 || o.Base.TargetInsts != 5000 {
		t.Errorf("overrides not applied: %+v", o)
	}
	if len(o.NRHs) != 2 || o.NRHs[0] != 512 || o.NRHs[1] != 64 {
		t.Errorf("NRHs = %v", o.NRHs)
	}
	if len(o.Mechanisms) != 2 || o.Mechanisms[1] != "para" {
		t.Errorf("Mechanisms = %v", o.Mechanisms)
	}
	for _, bad := range []OptionSpec{
		{Preset: "huge"},
		{NRHs: "512,potato"},
		{NRHs: "-4"},
		{Mixes: -1},
	} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("spec %+v resolved without error", bad)
		}
	}
}

// TestOptionSpecBind drives the flag declarations bhsweep and bhserve
// share from command lines through Resolve: every sweep flag lands in
// its field, the caller-spelled preset composes with them, flag.Visit
// names what was set (bhsweep's -worker reject-list relies on it), and
// bad values fail at parse or resolve time.
func TestOptionSpecBind(t *testing.T) {
	for _, tc := range []struct {
		name    string
		preset  string
		args    []string
		visited int
		check   func(Options) bool
		wantErr string
	}{
		{name: "no flags", check: func(o Options) bool {
			return o.MixesPerGroup == DefaultOptions().MixesPerGroup && !o.Base.Sampling.Enabled
		}},
		{name: "overrides on quick", preset: "quick", visited: 5,
			args: []string{"-mixes", "3", "-channels", "2", "-insts", "5000", "-nrhs", "512, 64", "-mechs", "rfm,para"},
			check: func(o Options) bool {
				return o.MixesPerGroup == 3 && o.Base.Channels == 2 && o.Base.TargetInsts == 5000 &&
					len(o.NRHs) == 2 && o.NRHs[1] == 64 && len(o.Mechanisms) == 2 && o.Mechanisms[0] == "rfm"
			}},
		{name: "sampling windows", visited: 4,
			args: []string{"-sample", "-warmup", "100", "-detail", "200", "-ff", "300"},
			check: func(o Options) bool {
				p := o.Base.Sampling
				return p.Enabled && p.WarmupCycles == 100 && p.DetailCycles == 200 && p.FFCycles == 300
			}},
		{name: "scenario grid and execution strategy", visited: 3,
			args: []string{"-strategies", "probe,decoy", "-defenses", "graphene+bh", "-traces", "a.trace"},
			check: func(o Options) bool {
				return len(o.Strategies) == 2 && len(o.Defenses) == 1 && len(o.Traces) == 1
			}},
		{name: "window without -sample", args: []string{"-detail", "200"}, wantErr: "sampling"},
		{name: "bad N_RH", args: []string{"-nrhs", "512,potato"}, wantErr: "potato"},
		{name: "unknown preset", preset: "huge", wantErr: "huge"},
		{name: "not a number", args: []string{"-mixes", "many"}, wantErr: "invalid value"},
		{name: "preset is the caller's flag", args: []string{"-preset", "quick"}, wantErr: "not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			spec := OptionSpec{Preset: tc.preset}
			spec.Bind(fs)
			err := fs.Parse(tc.args)
			var o Options
			if err == nil {
				o, err = spec.Resolve()
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			visited := 0
			fs.Visit(func(*flag.Flag) { visited++ })
			if visited != tc.visited {
				t.Errorf("flag.Visit saw %d set flags, want %d", visited, tc.visited)
			}
			if !tc.check(o) {
				t.Errorf("resolved options wrong: %+v", o)
			}
		})
	}
}
