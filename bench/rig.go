package main

import (
	"fmt"

	"breakhammer/internal/cache"
	"breakhammer/internal/core"
	"breakhammer/internal/cpu"
	"breakhammer/internal/dram"
	"breakhammer/internal/memsys"
	"breakhammer/internal/mitigation"
	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
	"breakhammer/internal/workload"
)

// The rig is the benchmark's shadow of sim.System for exact runs: it
// wires the same layers through their public constructors, in
// sim.NewSystem's order, and ticks them in sim.System.tickAll's order
// (memory -> LLC -> cores -> BreakHammer), one tick per cycle. Every
// call that crosses a layer boundary goes through an adapter defined
// here, so a sampled cycle can be timed layer by layer from outside the
// program. The rig must reproduce sim.System.Run()'s statistics exactly;
// the benchmark checks that on every traced pass.

// Span names, one per layer boundary the rig wraps.
const (
	spCycle      = "sim.cycle"
	spMemTick    = "memsys.tick"
	spMemEnqueue = "memsys.enqueue"
	spCacheTick  = "cache.tick"
	spCacheAcc   = "cache.access"
	spCacheFill  = "cache.fill"
	spCPUTick    = "cpu.tick"
	spSrcNext    = "workload.next"
	spMitAct     = "mitigation.on_activate"
	spBHAct      = "core.on_activate"
	spBHAction   = "core.on_action"
	spBHTick     = "core.tick"

	// Empty spans recorded in every sampled cycle; see costInSitu.
	spNullPhase  = "tracer.null_phase"
	spNullParent = "tracer.null_parent"
	spNullChild  = "tracer.null_child"
)

// The traced rig records traceBurst consecutive cycles out of every
// tracePeriod, one cycle in 61 overall. Bursts keep the tracer's own
// code and data warm, so one span costs about what the next does; the
// period is prime, so bursts do not lock onto the
// power-of-two cadences of the finish check, the refresh interval or a
// hammering loop.
const (
	traceBurst  = 8
	tracePeriod = 487
)

// finishCheckMask mirrors sim's benign-finished check cadence.
const finishCheckMask = 1023

// activation is one demand row activation as the mitigation mechanisms
// see it; the traced rig records the stream for the replay metrics.
type activation struct {
	bank, row, thread int
	now               int64
}

type rig struct {
	cfg    sim.Config
	mem    *memsys.Interleaved
	llc    *cache.LLC
	cores  []*cpu.Core
	mechs  []mitigation.Mechanism
	bh     *core.BreakHammer
	benign []bool
	tr     *tracer // adapters record spans while tr.on, pass straight through otherwise

	// Counts kept on every cycle, traced or not.
	coreTicks, coreIdle int64
	cmds                [16]int64 // DRAM commands by dram.Command, channel-summed
	busBusy             int64     // data-bus cycles occupied by RD/WR bursts
	acts                []activation

	// gaps holds the host time of every run of unsampled cycles between
	// two sampled bursts: what tracePeriod-traceBurst cycles cost without
	// the tracer, measured in the same run as the sampled ones.
	gaps     []int64
	burstEnd int64
}

// rigBackend is the LLC's view of memory (cache.Backend).
type rigBackend struct{ r *rig }

func (b rigBackend) EnqueueRead(line uint64, thread int) bool {
	if tr := b.r.tr; tr.on {
		s := tr.begin(spMemEnqueue)
		ok := b.r.mem.EnqueueRead(line, thread)
		tr.end(s)
		return ok
	}
	return b.r.mem.EnqueueRead(line, thread)
}

func (b rigBackend) EnqueueWrite(line uint64, thread int) bool {
	if tr := b.r.tr; tr.on {
		s := tr.begin(spMemEnqueue)
		ok := b.r.mem.EnqueueWrite(line, thread)
		tr.end(s)
		return ok
	}
	return b.r.mem.EnqueueWrite(line, thread)
}

// rigPort is the core's view of the LLC (cpu.Memory), with the outcome
// mapping of sim's own port.
type rigPort struct {
	r      *rig
	hitLat int64
}

func (p rigPort) read(line uint64, thread int, now int64, done func()) cpu.ReadResult {
	switch p.r.llc.Read(line, thread, done) {
	case cache.ReadHit:
		return cpu.ReadResult{OK: true, ReadyAt: now + p.hitLat}
	case cache.ReadMiss, cache.ReadMSHRHit:
		return cpu.ReadResult{OK: true, ReadyAt: -1}
	default:
		return cpu.ReadResult{}
	}
}

func (p rigPort) Read(line uint64, thread int, now int64, done func()) cpu.ReadResult {
	if tr := p.r.tr; tr.on {
		s := tr.begin(spCacheAcc)
		res := p.read(line, thread, now, done)
		tr.end(s)
		return res
	}
	return p.read(line, thread, now, done)
}

func (p rigPort) Write(line uint64, thread int, now int64) bool {
	if tr := p.r.tr; tr.on {
		s := tr.begin(spCacheAcc)
		ok := p.r.llc.Write(line, thread)
		tr.end(s)
		return ok
	}
	return p.r.llc.Write(line, thread)
}

// rigSource wraps a core's instruction source (cpu.Trace).
type rigSource struct {
	r   *rig
	src workload.Source
}

func (s rigSource) Next() (int64, uint64, bool) {
	if tr := s.r.tr; tr.on {
		sp := tr.begin(spSrcNext)
		b, l, w := s.src.Next()
		tr.end(sp)
		return b, l, w
	}
	return s.src.Next()
}

// rigObserver wraps BreakHammer's score attribution (mitigation.Observer).
type rigObserver struct{ r *rig }

func (o rigObserver) OnPreventiveAction(now int64) {
	if tr := o.r.tr; tr.on {
		s := tr.begin(spBHAction)
		o.r.bh.OnPreventiveAction(now)
		tr.end(s)
		return
	}
	o.r.bh.OnPreventiveAction(now)
}

func (o rigObserver) OnThreadPreventiveAction(thread int, now int64) {
	if tr := o.r.tr; tr.on {
		s := tr.begin(spBHAction)
		o.r.bh.OnThreadPreventiveAction(thread, now)
		tr.end(s)
		return
	}
	o.r.bh.OnThreadPreventiveAction(thread, now)
}

// newRig builds the rig for an exact configuration.
func newRig(cfg sim.Config, mix workload.Mix, tr *tracer) (*rig, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case cfg.Sampling.Enabled:
		return nil, fmt.Errorf("rig: sampled runs have no every-cycle shadow")
	case cfg.Mechanism == "blockhammer" || cfg.Mechanism == "rega":
		return nil, fmt.Errorf("rig: mechanism %q needs wiring the rig does not shadow", cfg.Mechanism)
	case cfg.ThrottleAt == "lsu" || cfg.RowPressFactor > 1:
		return nil, fmt.Errorf("rig: ThrottleAt/RowPressFactor are not shadowed")
	}
	threads := len(mix.Specs)
	channels := cfg.Channels
	if channels < 1 {
		channels = 1
	}
	mem, err := memsys.New(memsys.Config{
		Channels:   channels,
		DRAM:       cfg.DRAM,
		Timing:     cfg.Timing,
		MC:         cfg.MC,
		AddressMap: cfg.AddressMap,
	}, threads)
	if err != nil {
		return nil, err
	}
	r := &rig{cfg: cfg, mem: mem, tr: tr}
	r.llc = cache.New(cfg.Cache, threads, rigBackend{r})
	mem.SetFillFunc(func(line uint64) {
		if tr.on {
			s := tr.begin(spCacheFill)
			r.llc.Fill(line)
			tr.end(s)
			return
		}
		r.llc.Fill(line)
	})

	// The program records every read latency; the rig does the same work
	// so its cycles cost what the program's do.
	lat := make([]*stats.Histogram, threads)
	for i := range lat {
		lat[i] = stats.NewLatencyHistogram()
	}
	mem.SetLatencySink(func(thread int, cycles int64) {
		if thread >= 0 {
			lat[thread].Add(cfg.Timing.CyclesToNs(cycles))
		}
	})

	var obs mitigation.Observer
	if cfg.BreakHammer {
		window := cfg.BHWindow
		if window <= 0 {
			window = cfg.Timing.NsToCycles(64e6)
		}
		p := core.DefaultParams(threads, cfg.Cache.MSHRs, window)
		if cfg.BHThreat > 0 {
			p.Threat = cfg.BHThreat
		}
		if cfg.BHOutlier > 0 {
			p.Outlier = cfg.BHOutlier
		}
		r.bh = core.New(p)
		obs = rigObserver{r}
		r.llc.SetQuotaProvider(r.bh)
		mem.AddActivateHook(func(channel, bank, row, thread int, now int64) {
			if tr.on {
				s := tr.begin(spBHAct)
				r.bh.OnActivate(thread)
				tr.end(s)
				return
			}
			r.bh.OnActivate(thread)
		})
	}
	for ch := 0; ch < mem.Channels(); ch++ {
		mech, err := mitigation.New(cfg.Mechanism, mitigation.Params{
			NRH:         cfg.NRH,
			BlastRadius: cfg.BlastRadius,
			Banks:       cfg.DRAM.TotalBanks(),
			RowsPerBank: cfg.DRAM.RowsPerBank,
			Threads:     threads,
			REFW:        cfg.Timing.REFW,
			REFI:        cfg.Timing.REFI,
			RC:          cfg.Timing.RC,
			Seed:        cfg.Seed + int64(ch)*0x9e3779b9,
		}, mem.Channel(ch), obs)
		if err != nil {
			return nil, err
		}
		if mech == nil {
			break // "none"
		}
		r.mechs = append(r.mechs, mech)
		record := ch == 0 // one channel's stream is input enough for the replay
		mem.Channel(ch).AddActivateHook(func(bank, row, thread int, now int64) {
			if record {
				r.acts = append(r.acts, activation{bank, row, thread, now})
			}
			if tr.on {
				s := tr.begin(spMitAct)
				mech.OnActivate(bank, row, thread, now)
				tr.end(s)
				return
			}
			mech.OnActivate(bank, row, thread, now)
		})
	}
	burst := cfg.Timing.BL
	for ch := 0; ch < mem.Channels(); ch++ {
		mem.Device(ch).SetIssueHook(func(cmd dram.Command, _ dram.Addr, _ int64) {
			r.cmds[cmd]++
			if cmd == dram.CmdRD || cmd == dram.CmdWR {
				r.busBusy += burst
			}
		})
	}

	port := rigPort{r: r, hitLat: cfg.Cache.HitLatency}
	for i, spec := range mix.Specs {
		src, err := workload.NewSource(spec, i)
		if err != nil {
			return nil, err
		}
		if _, adaptive := src.(workload.FeedbackObserver); adaptive {
			return nil, fmt.Errorf("rig: adaptive sources are not shadowed")
		}
		r.cores = append(r.cores, cpu.New(i, cfg.Core, rigSource{r, src}, port, cfg.TargetInsts))
		r.benign = append(r.benign, spec.Benign())
	}
	return r, nil
}

// rigResult is the subset of sim.Result the equivalence check compares.
type rigResult struct {
	Cycles         int64
	Insts          []int64
	Actions        int64
	TotalACTs      int64
	BenignFinished bool
}

func resultOf(res sim.Result) rigResult {
	return rigResult{
		Cycles:         res.Cycles,
		Insts:          res.Insts,
		Actions:        res.Actions,
		TotalACTs:      res.MC.TotalACTs,
		BenignFinished: res.BenignFinished,
	}
}

func (a rigResult) equal(b rigResult) bool {
	if a.Cycles != b.Cycles || a.Actions != b.Actions || a.TotalACTs != b.TotalACTs ||
		a.BenignFinished != b.BenignFinished || len(a.Insts) != len(b.Insts) {
		return false
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			return false
		}
	}
	return true
}

func (r *rig) benignFinished() bool {
	any := false
	for i, c := range r.cores {
		if !r.benign[i] {
			continue
		}
		any = true
		if !c.Finished() {
			return false
		}
	}
	return any
}

// run is sim.System.runEveryCycle over the rig's components. The sampled
// cycles are recorded: a root span for the
// cycle, one phase span per component tick sharing timestamps with its
// neighbours, and child spans from the adapters.
func (r *rig) run() rigResult {
	cycle := int64(0)
	for ; cycle < r.cfg.MaxCycles; cycle++ {
		if cycle%tracePeriod < traceBurst {
			r.tracedCycle(cycle)
		} else {
			r.mem.Tick(cycle)
			r.llc.Tick()
			for _, c := range r.cores {
				r.coreTicks++
				if !c.Tick(cycle) {
					r.coreIdle++
				}
			}
			if r.bh != nil {
				r.bh.Tick(cycle)
			}
		}
		if cycle&finishCheckMask == 0 && r.benignFinished() {
			break
		}
	}
	r.mem.Close()
	res := rigResult{Cycles: cycle, TotalACTs: r.mem.Stats().TotalACTs, BenignFinished: r.benignFinished()}
	for _, c := range r.cores {
		res.Insts = append(res.Insts, c.Retired())
	}
	for _, m := range r.mechs {
		res.Actions += m.Actions()
	}
	return res
}

func (r *rig) tracedCycle(cycle int64) {
	tr := r.tr
	tr.on, tr.id = true, cycle
	at := tr.now()
	if cycle%tracePeriod == 0 && cycle > 0 {
		r.gaps = append(r.gaps, at-r.burstEnd)
	}
	root := tr.open(spCycle, at, false)

	s := tr.open(spMemTick, at, true)
	r.mem.Tick(cycle)
	at = tr.close(s)

	s = tr.open(spCacheTick, at, true)
	r.llc.Tick()
	at = tr.close(s)

	// One span covers every core's tick: an idle core's tick is shorter
	// than a clock read, so per-core spans would measure the clock.
	s = tr.open(spCPUTick, at, true)
	for _, c := range r.cores {
		r.coreTicks++
		if !c.Tick(cycle) {
			r.coreIdle++
		}
	}
	at = tr.close(s)

	if r.bh != nil {
		s = tr.open(spBHTick, at, true)
		r.bh.Tick(cycle)
		at = tr.close(s)
	}

	// Two empty phases, the second holding one empty child, measure what
	// a span costs here rather than in a tight loop; see costInSitu.
	s = tr.open(spNullPhase, at, true)
	at = tr.close(s)
	s = tr.open(spNullParent, at, true)
	tr.end(tr.begin(spNullChild))
	at = tr.close(s)

	tr.closeAt(root, at)
	r.burstEnd = at
	tr.on = false
}
