package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
)

// gridFigs are the figures the sweep, serve and fleet workloads build:
// 6 and 7 read one operating point, 8 the whole N_RH sweep, and the
// three share most of their points, so the orchestrator's deduplication
// is on the measured path.
var gridFigs = []string{"6", "7", "8"}

// gridOptions is the sweep grid those workloads share: the quick preset
// cut to 17 deduplicated points of 6 mixes each, short enough that a cold
// sweep takes a couple of seconds. The seed feeds the probabilistic
// mechanisms. round is added to the instruction target: alone-IPC
// baselines are memoized per process and keyed by run length, so each
// round of a workload pays for its own baselines, as every fresh bhsweep
// process does, and rounds repeat the same amount of work.
func gridOptions(e *env, round int) exp.Options {
	o := exp.QuickOptions()
	o.Base.TargetInsts = 16_000 + int64(round)
	o.Base.BHWindow = 40_000
	o.Base.Seed = e.seed
	o.NRHs = []int{1024, 128}
	o.Mechanisms = []string{"graphene", "rfm", "para", "prac"}
	if e.smoke {
		o.Base.TargetInsts = 6_000 + int64(round)
		o.Base.BHWindow = 20_000
		o.Mechanisms = []string{"graphene", "prac"}
	}
	return o
}

// sweepPass is one bhsweep invocation's worth of work over a store.
type sweepPass struct {
	tables   []string // exp.Table.JSON() per figure, in figs order
	points   int      // deduplicated points of the sweep
	executed int64    // points simulated, not served from the store
	prefetch time.Duration
	render   time.Duration
	events   []exp.Event // PointFinished events
}

// runSweep enumerates the figures' points, brings them into the store and
// renders the figures: what bhsweep does between opening the cache
// directory and printing.
func runSweep(opts exp.Options, store *results.Store, figs []string) (sweepPass, error) {
	var p sweepPass
	runner := exp.NewRunnerWithStore(opts, store)
	var mu sync.Mutex
	start := time.Now()
	err := runner.PrefetchContext(context.Background(), runner.PointsFor(figs), func(ev exp.Event) {
		if ev.Type == exp.PointFinished {
			mu.Lock()
			p.events = append(p.events, ev)
			mu.Unlock()
		}
	})
	p.prefetch = time.Since(start)
	if err != nil {
		return p, err
	}
	p.points = len(p.events)
	start = time.Now()
	for _, name := range figs {
		ex, ok := exp.ExperimentByName(name)
		if !ok {
			return p, fmt.Errorf("unknown experiment %q", name)
		}
		tbl, err := ex.Run(runner)
		if err != nil {
			return p, err
		}
		p.tables = append(p.tables, tbl.JSON())
	}
	p.render = time.Since(start)
	p.executed = runner.Executed()
	return p, nil
}

func equalTables(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// warmUpSweep is the set-up the sweep-shaped workloads repeat: a small
// cold sweep on a memory store, at a run length no timed round uses, so
// the heap, the scheduler and the code are warm but no timed round finds
// its baselines memoized.
func warmUpSweep(e *env, rep int) error {
	opts := gridOptions(e, 1000+rep)
	opts.Mechanisms = opts.Mechanisms[:1]
	_, err := runSweep(opts, results.NewMemory(), []string{"6"})
	return err
}

// timeSetups repeats a workload's set-up and records each repetition's
// time.
func timeSetups(e *env, o *outcome, setup func(rep int) error) error {
	for i := 0; i < setupReps(e); i++ {
		start := time.Now()
		if err := setup(i); err != nil {
			return err
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}
	return nil
}

// sweepWorkload: rounds of {cold sweep into a fresh cache directory, then
// warm passes that reopen the directory, prefetch and render}.
func sweepWorkload(e *env) *outcome {
	o := newOutcome()
	if err := timeSetups(e, o, func(i int) error { return warmUpSweep(e, i) }); err != nil {
		return o.fail(err)
	}

	var coldRates, warmMs, prefetchMs, renderMs, openMs []float64
	var lastCold sweepPass
	var lastDir string
	var lastOpts exp.Options
	begin := time.Now()
	for round := 0; round < 2 || time.Since(begin).Seconds() < e.seconds; round++ {
		opts := gridOptions(e, round)
		dir := filepath.Join(e.tmp, fmt.Sprintf("cache-%d", round))
		runtime.GC() // every round starts from the same heap, whatever its predecessor left
		start := time.Now()
		store, err := results.Open(dir)
		if err != nil {
			return o.fail(err)
		}
		cold, err := runSweep(opts, store, gridFigs)
		if err != nil {
			return o.fail(err)
		}
		coldWall := time.Since(start)
		coldRates = append(coldRates, float64(cold.points)/coldWall.Seconds())
		o.check(cold.executed == int64(cold.points), "sweep: cold pass simulated %d of %d points", cold.executed, cold.points)
		lastCold, lastDir, lastOpts = cold, dir, opts

		// Warm passes share the round's remaining time: a third of a cold
		// sweep's wall, at least five passes.
		store = nil
		runtime.GC()
		for n, wbegin := 0, time.Now(); n < 5 || time.Since(wbegin) < coldWall/3; n++ {
			start := time.Now()
			ws, err := results.Open(dir)
			if err != nil {
				return o.fail(err)
			}
			opened := time.Since(start)
			warm, err := runSweep(opts, ws, gridFigs)
			if err != nil {
				return o.fail(err)
			}
			warmMs = append(warmMs, float64(time.Since(start).Nanoseconds())/1e6)
			openMs = append(openMs, float64(opened.Nanoseconds())/1e6)
			prefetchMs = append(prefetchMs, float64(warm.prefetch.Nanoseconds())/1e6)
			renderMs = append(renderMs, float64(warm.render.Nanoseconds())/1e6)
			o.check(warm.executed == 0, "sweep: warm pass simulated %d points", warm.executed)
			o.check(equalTables(warm.tables, cold.tables), "sweep: warm tables differ from the cold ones")
			if e.smoke && n >= 1 {
				break
			}
		}
		if e.smoke {
			break
		}
	}
	o.work, o.wait, o.samples = median(coldRates), median(warmMs), len(warmMs)

	if e.trace {
		L := o.layer
		L["results.open_ms"] = median(openMs)
		L["exp.warm_prefetch_ms"] = median(prefetchMs)
		L["exp.render_ms"] = median(renderMs)
		sweepLayers(e, o, lastOpts, lastCold, lastDir)
	}
	return o
}

// sweepLayers attributes the last cold sweep's wall time from its event
// stream and the timings the store recorded, and times the store's public
// operations on a scratch copy of the sweep's records.
func sweepLayers(e *env, o *outcome, opts exp.Options, cold sweepPass, dir string) {
	L := o.layer
	runner := exp.NewRunner(opts)

	start := time.Now()
	points := runner.PointsFor(gridFigs)
	keys := make([]string, 0, len(points))
	for _, p := range points {
		k, err := runner.PointKey(p)
		if err != nil {
			o.check(false, "sweep: keying %v: %v", p, err)
			return
		}
		keys = append(keys, k)
	}
	L["exp.enumerate_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6

	store, err := results.Open(dir)
	if err != nil {
		o.check(false, "sweep: %v", err)
		return
	}
	tr := newTracer(8 * len(cold.events))
	var overhead []float64
	var busy time.Duration
	for i, ev := range cold.events {
		busy += ev.Elapsed()
		key, err := runner.PointKey(ev.Point)
		if err != nil {
			continue
		}
		simulated, ok := store.Elapsed(key)
		if !ok {
			continue
		}
		// The point's span ends when its event fired; the store's timing
		// says how much of it was simulation. What remains is the
		// orchestrator's: claim, re-probe, put.
		end := tr.now()
		parent := tr.record("exp.point", int64(i), -1, end-ev.ElapsedNS, end)
		tr.record("sim.run_mixes", int64(i), parent, end-ev.ElapsedNS, end-ev.ElapsedNS+simulated.Nanoseconds())
		overhead = append(overhead, float64((ev.Elapsed()-simulated).Nanoseconds())/1e6)
	}
	L["exp.point_overhead_ms"] = median(overhead)
	jobs := 2 // exp.Runner's default pool floor, which two vCPUs leave in force
	L["exp.pool_utilisation"] = busy.Seconds() / (float64(jobs) * cold.prefetch.Seconds())

	// The store's public operations, timed on a scratch directory holding
	// the sweep's own records.
	scratch, err := results.Open(filepath.Join(e.tmp, "scratch-store"))
	if err != nil {
		o.check(false, "sweep: %v", err)
		return
	}
	var putMs, getUs, claimUs []float64
	var bytes int64
	for i, k := range keys {
		rs, ok := store.Get(k)
		if !ok {
			continue
		}
		t0 := tr.now()
		if err := scratch.Put(k, rs); err != nil {
			o.check(false, "sweep: put: %v", err)
			return
		}
		t1 := tr.now()
		scratch.Get(k)
		t2 := tr.now()
		if c, err := scratch.TryClaim(k+"-probe", 0); err == nil && c != nil {
			c.Release()
		}
		t3 := tr.now()
		tr.record("results.put", int64(i), -1, t0, t1)
		tr.record("results.get", int64(i), -1, t1, t2)
		tr.record("results.claim", int64(i), -1, t2, t3)
		putMs = append(putMs, float64(t1-t0)/1e6)
		getUs = append(getUs, float64(t2-t1)/1e3)
		claimUs = append(claimUs, float64(t3-t2)/1e3)
	}
	if shards, err := filepath.Glob(filepath.Join(scratch.Dir(), "shard-*.jsonl")); err == nil {
		for _, s := range shards {
			if fi, err := os.Stat(s); err == nil {
				bytes += fi.Size()
			}
		}
	}
	var covUs, reloadMs []float64
	before := scratch.Stats().ShardReads
	for i := 0; i < 200; i++ {
		t0 := tr.now()
		scratch.Coverage(keys)
		covUs = append(covUs, float64(tr.now()-t0)/1e3)
	}
	for _, k := range keys {
		t0 := tr.now()
		scratch.Reload(k)
		reloadMs = append(reloadMs, float64(tr.now()-t0)/1e6)
	}
	L["results.put_ms"] = median(putMs)
	L["results.get_us"] = median(getUs)
	L["results.claim_us"] = median(claimUs)
	L["results.coverage_us"] = median(covUs)
	L["results.reload_ms"] = median(reloadMs)
	L["results.shard_reads"] = float64(scratch.Stats().ShardReads - before)
	if len(putMs) > 0 {
		L["results.bytes_per_point"] = float64(bytes) / float64(len(putMs))
	}
	o.saveSpans(e, tr)
}
