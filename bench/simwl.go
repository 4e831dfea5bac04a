package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"breakhammer/internal/dram"
	"breakhammer/internal/memctrl"
	"breakhammer/internal/mitigation"
	"breakhammer/internal/sampling"
	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// simCase is one simulation point. Instruction targets are sized so a
// repetition lasts about half a second on the two-vCPU reference box: a
// run of a few seconds then holds enough repetitions for a steady median.
type simCase struct {
	mix      string
	mech     string
	channels int
	insts    int64
	sampled  bool
}

var simCases = map[string]simCase{
	"sim-attack":    {mix: "HHMA", mech: "graphene", channels: 1, insts: 400_000},
	"sim-benign":    {mix: "HMLL", mech: "graphene", channels: 1, insts: 1_000_000},
	"sim-multichan": {mix: "HHMMLLLA", mech: "prac", channels: 4, insts: 200_000},
	"sim-sampled":   {mix: "HHMA", mech: "graphene", channels: 1, insts: 400_000, sampled: true},
}

// sampledSane is the correctness check of a sampled result: it measured
// at least one window and its weighted speedup, like the exact
// reference's, is a positive finite number. How far the two are apart is
// reported (sampling.ws_err) and not judged: over 300 seeds of this point
// the sampled loop's sixteen to eighteen windows put the median error at
// 0.03, eight seeds over 0.15 and one at 3.4, so any limit tight enough
// to mean something fails on inputs the program handles as designed.
func sampledSane(sm sim.MixResult, wsExact float64) bool {
	finite := func(x float64) bool { return x > 0 && !math.IsInf(x, 0) }
	return sm.Sampling != nil && sm.Sampling.Windows > 0 && finite(sm.WS) && finite(wsExact)
}

// inputs builds the configuration and mix of a case from the seed.
func (c simCase) inputs(e *env) (sim.Config, workload.Mix, error) {
	cfg := sim.FastConfig()
	cfg.Mechanism, cfg.BreakHammer, cfg.NRH = c.mech, true, 128
	cfg.Channels = c.channels
	cfg.TargetInsts = c.insts
	cfg.Seed = e.seed
	if e.smoke {
		cfg.TargetInsts = c.insts / 10
		cfg.BHWindow = 200_000
	}
	if c.sampled {
		cfg.Sampling = sampling.Params{Enabled: true, WarmupCycles: 4000, DetailCycles: 12000, FFCycles: 134000}
		if e.smoke {
			cfg.Sampling = sampling.Params{Enabled: true, WarmupCycles: 2000, DetailCycles: 6000, FFCycles: 32000}
		}
	}
	mix, err := workload.ParseMix(c.mix, e.seed)
	return cfg, mix, err
}

// point is one timed sim.NewSystem(cfg, mix).Run(): what a bhsim user
// waits on.
func point(cfg sim.Config, mix workload.Mix) (sim.Result, time.Duration, error) {
	start := time.Now()
	sys, err := sim.NewSystem(cfg, mix)
	if err != nil {
		return sim.Result{}, 0, err
	}
	res := sys.Run()
	return res, time.Since(start), nil
}

func simWorkload(e *env) *outcome {
	o := newOutcome()
	c := simCases[e.workload]
	if e.trace {
		return simTraced(e, c, o)
	}

	// Set-up: generate the inputs, run the exact reference a sampled case
	// is judged against, and run one warm-up repetition. Repeated so the
	// reported set-up time is a median.
	var (
		cfg     sim.Config
		mix     workload.Mix
		wsExact float64
	)
	for i := 0; i < setupReps(e); i++ {
		e.host.sample()
		start := time.Now()
		var err error
		if cfg, mix, err = c.inputs(e); err != nil {
			return o.fail(err)
		}
		if c.sampled {
			exact := cfg
			exact.Sampling = sampling.Params{}
			mr, err := sim.RunMix(exact, mix)
			if err != nil {
				return o.fail(err)
			}
			wsExact = mr.WS
		}
		if _, _, err := point(cfg, mix); err != nil {
			return o.fail(err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
	}

	var first rigResult
	var rates, waits []float64
	for begin := time.Now(); len(rates) < 3 || time.Since(begin).Seconds() < e.seconds; {
		runtime.GC() // between repetitions, so no repetition pays for its predecessor's garbage
		res, wall, err := point(cfg, mix)
		if err != nil {
			return o.fail(err)
		}
		e.host.sample()
		rates = append(rates, float64(res.Cycles)/wall.Seconds())
		waits = append(waits, float64(wall.Nanoseconds())/1e6)
		got := resultOf(res)
		if len(rates) == 1 {
			first = got
			o.check(res.BenignFinished, "%s: benign cores did not finish", e.workload)
		} else {
			o.check(got.equal(first), "%s: repetition %d differs from repetition 1: %+v vs %+v", e.workload, len(rates), got, first)
		}
	}
	o.work, o.wait, o.samples = median(rates), median(waits), len(rates)

	if c.sampled {
		mr, err := sim.RunMix(cfg, mix)
		if err != nil {
			return o.fail(err)
		}
		o.check(sampledSane(mr, wsExact), "sim-sampled: weighted speedup %v against exact %v, sampling summary %+v", mr.WS, wsExact, mr.Sampling)
		fmt.Printf("# sim-sampled: weighted speedup %.4f against exact %.4f, error %.4f (simulated, repeats exactly for a seed)\n", mr.WS, wsExact, math.Abs(mr.WS-wsExact)/wsExact)
	}
	return o
}

// setupReps is how many times a workload repeats its set-up.
func setupReps(e *env) int {
	if e.smoke {
		return 1
	}
	return 3
}

// simTraced is the traced pass of a simulation workload: the program's
// two exact loops against each other, the rig against both, the spans
// turned into per-layer self times, and the standalone layer drivers.
func simTraced(e *env, c simCase, o *outcome) *outcome {
	cfg, mix, err := c.inputs(e)
	if err != nil {
		return o.fail(err)
	}
	L := o.layer

	if c.sampled {
		return sampledTraced(e, cfg, mix, o)
	}

	// The program, skip-ahead loop: reference statistics, allocation and
	// heap cost of one point.
	if _, _, err := point(cfg, mix); err != nil { // warm-up
		return o.fail(err)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sys, err := sim.NewSystem(cfg, mix)
	if err != nil {
		return o.fail(err)
	}
	tNew := time.Since(t0)
	t0 = time.Now()
	ref := sys.Run()
	skipWall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	cycles := float64(ref.Cycles)
	L["sim.newsystem_ms"] = float64(tNew.Nanoseconds()) / 1e6
	L["sim.skip_ahead_ns_per_cycle"] = float64(skipWall.Nanoseconds()) / cycles
	L["sim.allocs_per_kcycle"] = float64(m1.Mallocs-m0.Mallocs) / cycles * 1000
	L["sim.heap_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	L["sim.cycles"] = cycles
	var insts int64
	for _, n := range ref.Insts {
		insts += n
	}
	L["sim.insts"] = float64(insts)
	o.check(ref.BenignFinished, "%s: benign cores did not finish", e.workload)
	simulatedStats(L, cfg, ref)

	// The program, every-cycle loop.
	every := cfg
	every.DisableSkipAhead = true
	evRes, evWall, err := point(every, mix)
	if err != nil {
		return o.fail(err)
	}
	L["sim.every_cycle_ns_per_cycle"] = float64(evWall.Nanoseconds()) / cycles
	L["sim.skip_ahead_gain"] = float64(evWall) / float64(skipWall+tNew)
	o.check(resultOf(evRes).equal(resultOf(ref)), "%s: every-cycle loop differs from skip-ahead: %+v vs %+v", e.workload, resultOf(evRes), resultOf(ref))

	// The rig, traced.
	tr := newTracer(int(ref.Cycles/tracePeriod+2) * traceBurst * 12)
	r, err := newRig(cfg, mix, tr)
	if err != nil {
		return o.fail(err)
	}
	t0 = time.Now()
	got := r.run()
	rigWall := time.Since(t0)
	o.check(got.equal(resultOf(ref)), "%s: rig differs from sim.System.Run(): %+v vs %+v", e.workload, got, resultOf(ref))
	L["sim.rig_overhead_ratio"] = float64(rigWall) / float64(evWall)
	rigLayers(e, o, r, tr, got.Cycles)
	o.saveSpans(e, tr)

	replayMechanisms(L, cfg, len(mix.Specs), r.acts)
	controllerDriver(L, e)

	if c.channels > 1 {
		// Parallel channel ticking against the serial batch, on a shorter
		// point: on two vCPUs the spinning workers cost several times the
		// serial wall, and this number is informational.
		short := cfg
		short.TargetInsts = cfg.TargetInsts / 4
		serRes, serWall, err := point(short, mix)
		if err != nil {
			return o.fail(err)
		}
		short.ParallelChannels = true
		parRes, parWall, err := point(short, mix)
		if err != nil {
			return o.fail(err)
		}
		L["memsys.parallel_ratio"] = float64(parWall) / float64(serWall)
		o.check(resultOf(parRes).equal(resultOf(serRes)), "%s: parallel channels differ from serial: %+v vs %+v", e.workload, resultOf(parRes), resultOf(serRes))
	}
	return o
}

// simulatedStats copies the exact simulated counts of a run into the
// per-layer metrics. They repeat exactly for one seed, so a change meant
// only to speed the simulator up can be shown to leave them alone.
func simulatedStats(L map[string]float64, cfg sim.Config, res sim.Result) {
	mc := res.MC
	var demand, hits int64
	for i := range mc.DemandACTs {
		demand += mc.DemandACTs[i]
		hits += mc.RowHits[i]
	}
	L["memctrl.total_acts"] = float64(mc.TotalACTs)
	if demand+hits > 0 {
		L["memctrl.row_hit_ratio"] = float64(hits) / float64(demand+hits)
	}
	L["memctrl.preventive_cmds"] = float64(mc.VRRs + mc.RFMs + mc.Migrations + mc.AuxAccesses)
	L["memctrl.gated_acts"] = float64(mc.GatedACTs)
	L["memctrl.backoff_cycles"] = float64(mc.BackoffCycles)
	L["dram.refreshes"] = float64(mc.Refreshes)
	L["dram.energy_nj_per_kcycle"] = res.EnergyNJ / float64(res.Cycles) * 1000
	L["mitigation.actions"] = float64(res.Actions)
	if res.Actions > 0 {
		L["mitigation.acts_per_action"] = float64(mc.TotalACTs) / float64(res.Actions)
	}

	cs := res.CacheStats
	var reads, rhits, blocked, quota int64
	for i := range cs.Hits {
		reads += cs.Hits[i] + cs.Misses[i] + cs.MSHRHits[i]
		rhits += cs.Hits[i]
		blocked += cs.QuotaBlocks[i] + cs.MSHRBlocks[i] + cs.QueueBlocks[i]
		quota += cs.QuotaBlocks[i]
	}
	if reads > 0 {
		L["cache.hit_ratio"] = float64(rhits) / float64(reads)
	}
	if reads+blocked > 0 {
		L["cache.blocked_ratio"] = float64(blocked) / float64(reads+blocked)
	}
	L["cache.quota_blocks"] = float64(quota)

	var ipc float64
	var benign int
	for i, b := range res.Benign {
		if b {
			ipc += res.IPC[i]
			benign++
		}
	}
	if benign > 0 {
		L["cpu.benign_ipc_mean"] = ipc / float64(benign)
	}
	if bh := res.BH; bh != nil {
		var events, windows int64
		var blame, attacker float64
		for i := range bh.SuspectEvents {
			events += bh.SuspectEvents[i]
			windows += bh.SuspectWindows[i]
			blame += bh.AttributedScore[i]
			if !res.Benign[i] {
				attacker += bh.AttributedScore[i]
			}
		}
		L["core.suspect_events"] = float64(events)
		L["core.throttled_windows"] = float64(windows)
		if blame > 0 {
			L["core.attacker_blame_share"] = attacker / blame
		}
	}
}

// preemptedNs is the shortest sampled cycle treated as descheduled by
// the host: a simulated cycle costs well under a microsecond of host
// time, an involuntary context switch tens of microseconds or more.
const preemptedNs = 20_000

// reconcileTolerance bounds the share of an unsampled cycle's cost that
// the per-layer self times of the sampled cycles may fail to explain, or
// explain twice.
const reconcileTolerance = 0.25

// rigLayers turns the rig's spans into the per-layer host-time metrics
// and checks that they reconcile with the cycles that were not sampled.
func rigLayers(e *env, o *outcome, r *rig, tr *tracer, cycles int64) {
	L := o.layer
	kept, _ := dropPreempted(tr.spans, preemptedNs)
	cost := costInSitu(kept, tr.cost)
	st := selfTimes(kept, cost)
	// A layer whose ticks are shorter than a clock read can come out a
	// few nanoseconds below zero once the span cost is taken out; it is
	// reported as zero.
	self := func(names ...string) (ns float64, count int64) {
		for _, name := range names {
			if lt := st[name]; lt != nil {
				ns += lt.selfNs
				count += lt.count
			}
		}
		return math.Max(ns, 0), count
	}
	perCall := func(ns float64, count int64) float64 {
		if count == 0 {
			return 0
		}
		return ns / float64(count)
	}
	memNs, _ := self(spMemTick, spMemEnqueue)
	cacheNs, _ := self(spCacheTick, spCacheAcc, spCacheFill)
	accNs, accN := self(spCacheAcc)
	cpuNs, cpuSpans := self(spCPUTick)
	srcNs, srcN := self(spSrcNext)
	mitNs, mitN := self(spMitAct)
	bhNs, _ := self(spBHAct, spBHAction, spBHTick)
	bhActNs, bhActN := self(spBHAct)
	bhTickNs, bhTickN := self(spBHTick)
	layers := memNs + cacheNs + cpuNs + srcNs + mitNs + bhNs

	// The unsampled cycles of the same run, which the same noisy host
	// slowed equally, say what a cycle costs without the tracer. Gaps
	// several times the median held a descheduling, like the sampled
	// cycles dropped above.
	rest := unsampledNsPerCycle(r.gaps)
	root := st[spCycle]
	if rest == 0 || root == nil {
		o.check(false, "rig: too short a run to sample")
		return
	}
	n := float64(root.count) // sampled cycles the layers are summed over
	total := rest * n

	L["memsys.self_ns_per_cycle"] = memNs / n
	L["memsys.share"] = memNs / total
	L["cache.access_ns"] = perCall(accNs, accN)
	L["cache.share"] = cacheNs / total
	L["cpu.tick_ns"] = perCall(cpuNs, cpuSpans*int64(len(r.cores)))
	L["cpu.share"] = cpuNs / total
	L["workload.next_ns"] = perCall(srcNs, srcN)
	L["workload.share"] = srcNs / total
	L["mitigation.on_activate_ns"] = perCall(mitNs, mitN)
	L["mitigation.share"] = mitNs / total
	L["core.on_activate_ns"] = perCall(bhActNs, bhActN)
	L["core.tick_ns"] = perCall(bhTickNs, bhTickN)
	L["core.share"] = bhNs / total
	if r.coreTicks > 0 {
		L["cpu.noprogress_ratio"] = float64(r.coreIdle) / float64(r.coreTicks)
	}

	// Reconcile: what the layers' self times leave unexplained of an
	// unsampled cycle, or explain twice. Test-sized runs sample too few
	// cycles, next to other test binaries, for the tolerance to mean
	// anything; they report the share only.
	unattributed := 1 - layers/total
	L["sim.rig_unattributed_share"] = unattributed
	o.check(e.smoke || math.Abs(unattributed) <= reconcileTolerance,
		"rig: layer self times give %.0f ns per sampled cycle against %.0f ns per unsampled cycle (unattributed share %.3f, tolerance %.2f)",
		layers/n, rest, unattributed, reconcileTolerance)

	var cmds int64
	for _, c := range r.cmds {
		cmds += c
	}
	L["dram.cmds_per_kcycle"] = float64(cmds) / float64(cycles) * 1000
	L["dram.bus_utilisation"] = float64(r.busBusy) / float64(cycles*int64(r.mem.Channels()))
	L["trace.span_cost_ns"] = cost.in + cost.out
}

// unsampledNsPerCycle is the host time of one unsampled cycle: the gaps
// between sampled bursts, without those that lasted over four times the
// median gap.
func unsampledNsPerCycle(gaps []int64) float64 {
	if len(gaps) == 0 {
		return 0
	}
	fs := make([]float64, len(gaps))
	for i, g := range gaps {
		fs[i] = float64(g)
	}
	limit := 4 * median(fs)
	var sum float64
	var kept int
	for _, g := range fs {
		if g <= limit {
			sum += g
			kept++
		}
	}
	return sum / float64(kept*(tracePeriod-traceBurst))
}

// countingIssuer is the mitigation.Issuer of a replay: it counts the
// preventive actions a mechanism asks for and does nothing else.
type countingIssuer struct{ n int64 }

func (c *countingIssuer) RequestVRR(int, []int)          { c.n++ }
func (c *countingIssuer) RequestRFM(int)                 { c.n++ }
func (c *countingIssuer) RequestAux(int)                 { c.n++ }
func (c *countingIssuer) RequestMigration(int, int, int) { c.n++ }
func (c *countingIssuer) RequestBackoff(bank, nRFM int)  { c.n++ }

// replayMechanisms replays the recorded activation stream of channel 0
// into a standalone instance of every mechanism, timing OnActivate alone:
// the cost of each trigger algorithm on one identical input.
func replayMechanisms(L map[string]float64, cfg sim.Config, threads int, acts []activation) {
	if len(acts) == 0 {
		return
	}
	names := append(mitigation.Names(), "blockhammer")
	for _, name := range names {
		mech, err := mitigation.New(name, mitigation.Params{
			NRH:         cfg.NRH,
			BlastRadius: cfg.BlastRadius,
			Banks:       cfg.DRAM.TotalBanks(),
			RowsPerBank: cfg.DRAM.RowsPerBank,
			Threads:     threads,
			REFW:        cfg.Timing.REFW,
			REFI:        cfg.Timing.REFI,
			RC:          cfg.Timing.RC,
			Seed:        cfg.Seed,
		}, &countingIssuer{}, nil)
		if err != nil || mech == nil {
			continue
		}
		start := time.Now()
		for _, a := range acts {
			mech.OnActivate(a.bank, a.row, a.thread, a.now)
		}
		L["mitigation.replay_ns."+name] = float64(time.Since(start).Nanoseconds()) / float64(len(acts))
	}
}

// controllerDriver ticks a standalone Controller+Device pair under two
// sustained loads: deep (64-entry queues kept full of row conflicts over
// few banks, the attack's shape) and shallow (8-entry queues fed a
// row-sequential stream, the benign shape). One scheduler serves both; a
// fix for one must not cost the other.
func controllerDriver(L map[string]float64, e *env) {
	ticks := 400_000
	if e.smoke {
		ticks = 40_000
	}
	drive := func(deep bool) (nsPerTick, allocsPerTick float64) {
		dev, err := dram.NewDevice(dram.Default(), dram.DDR5())
		if err != nil {
			return 0, 0
		}
		mcfg := memctrl.DefaultConfig()
		if !deep {
			mcfg = memctrl.Config{ReadQueue: 8, WriteQueue: 8, WriteHi: 6, WriteLo: 2, Cap: 4}
		}
		ctl := memctrl.New(mcfg, dev, 4)
		ctl.SetFillFunc(func(uint64) {})
		x := uint64(e.seed)*0x9E3779B97F4A7C15 + 1
		step := func(cycle int64) {
			for k := 0; k < 2; k++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				var addr dram.Addr
				if deep {
					addr = dram.Addr{Bank: int(x&7) * 2, Row: int((x>>8)&63) * 37, Col: int((x >> 16) & 127)}
				} else {
					seq := x >> 3
					addr = dram.Addr{Bank: int(x & 7), Row: int(seq/128) & 1023, Col: int(seq & 127)}
				}
				if x&0x300 == 0x300 {
					ctl.EnqueueWriteAddr(x>>24, -1, addr)
				} else {
					ctl.EnqueueReadAddr(x>>24, int(x>>60)&3, addr)
				}
			}
			ctl.Tick(cycle)
		}
		var cycle int64
		for ; cycle < 20_000; cycle++ { // past the arena and queue high-water marks
			step(cycle)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < ticks; i++ {
			step(cycle)
			cycle++
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		return float64(wall.Nanoseconds()) / float64(ticks), float64(m1.Mallocs-m0.Mallocs) / float64(ticks)
	}
	var allocs float64
	L["memctrl.tick_deep_ns"], allocs = drive(true)
	shallow, a2 := drive(false)
	L["memctrl.tick_shallow_ns"] = shallow
	L["memctrl.allocs_per_tick"] = math.Max(allocs, a2)
}

// sampledTraced is the traced pass of sim-sampled: the sampled loop
// against the exact one, in wall time and in weighted speedup.
func sampledTraced(e *env, cfg sim.Config, mix workload.Mix, o *outcome) *outcome {
	L := o.layer
	exact := cfg
	exact.Sampling = sampling.Params{}
	if _, err := sim.RunMix(exact, mix); err != nil { // warm-up; fills the alone-IPC cache
		return o.fail(err)
	}
	t0 := time.Now()
	ex, err := sim.RunMix(exact, mix)
	if err != nil {
		return o.fail(err)
	}
	exWall := time.Since(t0)
	var walls []float64
	var sm sim.MixResult
	for i := 0; i < 5; i++ {
		t0 = time.Now()
		if sm, err = sim.RunMix(cfg, mix); err != nil {
			return o.fail(err)
		}
		walls = append(walls, float64(time.Since(t0).Nanoseconds()))
	}
	smWall := median(walls)
	sum := sm.Sampling
	if sum == nil {
		return o.fail(fmt.Errorf("sim-sampled: result carries no sampling summary"))
	}
	exNsPerCycle := float64(exWall.Nanoseconds()) / float64(ex.Cycles)
	L["sim.cycles"] = float64(sm.Cycles)
	L["sim.skip_ahead_ns_per_cycle"] = exNsPerCycle
	L["sampling.speedup"] = float64(exWall.Nanoseconds()) / smWall
	L["sampling.detailed_share"] = float64(sum.DetailedCycles) / float64(sum.DetailedCycles+sum.FFCycles)
	L["sampling.windows"] = float64(sum.Windows)
	if sum.FFCycles > 0 {
		L["sampling.ff_ns_per_cycle"] = (smWall - float64(sum.DetailedCycles)*exNsPerCycle) / float64(sum.FFCycles)
	}
	L["sampling.ws_err"] = math.Abs(sm.WS-ex.WS) / ex.WS
	o.check(sampledSane(sm, ex.WS), "sim-sampled: weighted speedup %v against exact %v, sampling summary %+v", sm.WS, ex.WS, sm.Sampling)
	o.check(sm.BenignFinished, "sim-sampled: benign cores did not finish")
	simulatedStats(L, cfg, sm.Result)
	return o
}
