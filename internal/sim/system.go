package sim

import (
	"fmt"

	"breakhammer/internal/cache"
	"breakhammer/internal/core"
	"breakhammer/internal/cpu"
	"breakhammer/internal/memctrl"
	"breakhammer/internal/memsys"
	"breakhammer/internal/mitigation"
	"breakhammer/internal/sampling"
	"breakhammer/internal/stats"
	"breakhammer/internal/workload"
)

// System is one fully wired simulated machine.
type System struct {
	cfg   Config
	mem   *memsys.Interleaved
	llc   *cache.LLC
	cores []*cpu.Core
	mechs []mitigation.Mechanism // one instance per channel; empty for "none"
	bh    *core.BreakHammer

	// lockstep makes runDetailed execute every cycle: no core ever sleeps
	// and the next cycle is always cycle+1 (Config.DisableSkipAhead).
	lockstep bool

	// quotaMoved is set by an activation under BlockHammer, whose
	// AttackThrottler may have raised a quota (a lower RHLI, or the epoch
	// swap the activation applies); runDetailed wakes every core on it.
	quotaMoved bool

	// runDetailed's per-core sleep set: asleep[i] marks a core whose last
	// Tick made no progress, coreWake[i] its self-scheduled wake-up cycle,
	// wakesSeen[i] its cpu.Core.Wakes count then.
	asleep    []bool
	coreWake  []int64
	wakesSeen []int64

	benign    []bool
	latencies []*stats.Histogram

	// rowACTs counts activations per (channel, bank, row); nil unless
	// Config.RowCensus asked for the census.
	rowACTs map[[3]int]int64

	// Adaptive-source feedback: fbObs[i] is non-nil when thread i's
	// source implements workload.FeedbackObserver (a scenario strategy).
	// Delivery happens at ticked cycles; fbNext participates in the
	// skip-ahead wake set, so delivery cycles do not depend on which
	// cycles were skipped and the feedback seam never forks the
	// determinism contract.
	fbObs  []workload.FeedbackObserver
	fbNext []int64
	fbStep []int64
	hasFb  bool
}

// defaultFeedbackEvery is the feedback cadence for adaptive sources whose
// spec leaves FeedbackEvery at 0.
const defaultFeedbackEvery = 4096

// memPort adapts the LLC to the core's Memory interface.
type memPort struct {
	llc    *cache.LLC
	hitLat int64
}

func (m memPort) Read(line uint64, thread int, now int64, done func()) cpu.ReadResult {
	switch m.llc.Read(line, thread, done) {
	case cache.ReadHit:
		return cpu.ReadResult{OK: true, ReadyAt: now + m.hitLat}
	case cache.ReadMiss, cache.ReadMSHRHit:
		return cpu.ReadResult{OK: true, ReadyAt: -1}
	default:
		return cpu.ReadResult{}
	}
}

func (m memPort) Write(line uint64, thread int, now int64) bool {
	return m.llc.Write(line, thread)
}

// minQuota takes the most restrictive per-thread quota across providers
// (per-channel BlockHammer AttackThrottler instances).
type minQuota struct {
	providers []cache.QuotaProvider
}

func (m minQuota) MSHRQuota(thread int) int {
	q := m.providers[0].MSHRQuota(thread)
	for _, p := range m.providers[1:] {
		if v := p.MSHRQuota(thread); v < q {
			q = v
		}
	}
	return q
}

// NewSystem builds a system running the given mix (one spec per core).
func NewSystem(cfg Config, mix workload.Mix) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(mix.Specs) == 0 {
		return nil, fmt.Errorf("sim: empty mix")
	}
	threads := len(mix.Specs)

	timing := cfg.Timing
	if cfg.Mechanism == "rega" {
		// REGA's cost is a lengthened row cycle, applied to the device.
		extraRAS, extraRP := mitigation.REGATimingPenalty(cfg.effectiveNRH())
		timing.RAS += extraRAS
		timing.RP += extraRP
		timing.RC = timing.RAS + timing.RP
	}

	mem, err := memsys.New(memsys.Config{
		Channels:   cfg.channels(),
		DRAM:       cfg.DRAM,
		Timing:     timing,
		MC:         cfg.MC,
		AddressMap: cfg.AddressMap,
	}, threads)
	if err != nil {
		return nil, err
	}
	llc := cache.New(cfg.Cache, threads, mem)
	mem.SetFillFunc(llc.Fill)

	s := &System{cfg: cfg, mem: mem, llc: llc, lockstep: cfg.DisableSkipAhead}

	s.latencies = make([]*stats.Histogram, threads)
	for i := range s.latencies {
		s.latencies[i] = stats.NewLatencyHistogram()
	}
	mem.SetLatencySink(func(thread int, cycles int64) {
		if thread >= 0 {
			s.latencies[thread].Add(timing.CyclesToNs(cycles))
		}
	})

	// BreakHammer, if enabled, observes the mechanism instances on every
	// channel and throttles MSHRs. Activation attribution is cross-channel:
	// one score table sees the merged activation stream.
	var obs mitigation.Observer
	if cfg.BreakHammer {
		p := core.DefaultParams(threads, cfg.Cache.MSHRs, cfg.bhWindow())
		if cfg.BHThreat > 0 {
			p.Threat = cfg.BHThreat
		}
		if cfg.BHOutlier > 0 {
			p.Outlier = cfg.BHOutlier
		}
		s.bh = core.New(p)
		obs = s.bh
		if cfg.ThrottleAt != "lsu" {
			llc.SetQuotaProvider(s.bh) // §4.3: throttle at the cache-miss buffers
		}
		mem.AddActivateHook(func(channel, bank, row, thread int, now int64) {
			s.bh.OnActivate(thread)
		})
	}

	// One mechanism instance per channel: trigger state (per-bank counters,
	// Bloom filters, migration maps) is channel-local, exactly as each
	// channel's memory controller owns its own mitigation hardware.
	var blockers []*mitigation.BlockHammer
	for ch := 0; ch < mem.Channels(); ch++ {
		mech, err := mitigation.New(cfg.Mechanism, mitigation.Params{
			NRH:         cfg.effectiveNRH(),
			BlastRadius: cfg.BlastRadius,
			Banks:       cfg.DRAM.TotalBanks(),
			RowsPerBank: cfg.DRAM.RowsPerBank,
			Threads:     threads,
			REFW:        timing.REFW,
			REFI:        timing.REFI,
			RC:          timing.RC,
			Seed:        cfg.Seed + int64(ch)*0x9e3779b9,
		}, mem.Channel(ch), obs)
		if err != nil {
			return nil, err
		}
		if mech == nil {
			break // "none"
		}
		s.mechs = append(s.mechs, mech)
		mem.Channel(ch).AddActivateHook(mech.OnActivate)
		if bhm, ok := mech.(*mitigation.BlockHammer); ok {
			mem.Channel(ch).SetActGate(bhm.ActAllowedAt)
			// BlockHammer's AttackThrottler shrinks in-flight request
			// quotas by each thread's RowHammer likelihood index.
			bhm.SetMaxQuota(cfg.Cache.MSHRs)
			blockers = append(blockers, bhm)
		}
	}
	if cfg.RowCensus {
		s.rowACTs = make(map[[3]int]int64)
		mem.AddActivateHook(func(channel, bank, row, thread int, now int64) {
			s.rowACTs[[3]int{channel, bank, row}]++
		})
	}
	if len(blockers) > 0 {
		mem.AddActivateHook(func(channel, bank, row, thread int, now int64) {
			s.quotaMoved = true
		})
		providers := make([]cache.QuotaProvider, len(blockers))
		for i, b := range blockers {
			providers[i] = b
		}
		llc.SetQuotaProvider(minQuota{providers: providers})
	}

	port := memPort{llc: llc, hitLat: cfg.Cache.HitLatency}
	s.cores = make([]*cpu.Core, threads)
	s.benign = make([]bool, threads)
	s.fbObs = make([]workload.FeedbackObserver, threads)
	s.fbNext = make([]int64, threads)
	s.fbStep = make([]int64, threads)
	s.asleep = make([]bool, threads)
	s.coreWake = make([]int64, threads)
	s.wakesSeen = make([]int64, threads)
	for i, spec := range mix.Specs {
		// NewSource hands trace-backed specs an independent replay cursor
		// (shared records, private position), scenario specs their
		// adaptive strategy, and synthetic specs their generator.
		src, err := workload.NewSource(spec, i)
		if err != nil {
			return nil, err
		}
		s.cores[i] = cpu.New(i, cfg.Core, src, port, cfg.TargetInsts)
		if s.bh != nil && cfg.ThrottleAt == "lsu" {
			s.cores[i].SetLoadQuota(s.bh) // §4.4: throttle unresolved loads at the core
		}
		s.benign[i] = spec.Benign()
		if obs, ok := src.(workload.FeedbackObserver); ok {
			step := spec.FeedbackEvery
			if step <= 0 {
				step = defaultFeedbackEvery
			}
			s.fbObs[i] = obs
			s.fbStep[i] = step
			s.fbNext[i] = step
			s.hasFb = true
		}
	}
	return s, nil
}

// deliverFeedback hands each adaptive source its per-thread signal bundle
// when its cadence expires. It runs at ticked cycles, after the memory
// side and before the cores; the skip-ahead wake set includes every
// fbNext, so a deadline's cycle is always ticked. Delivery mutates only
// source-internal strategy state — it cannot unblock a stalled core —
// so it does not count as progress.
func (s *System) deliverFeedback(cycle int64) {
	if !s.hasFb {
		return
	}
	for i, obs := range s.fbObs {
		if obs == nil || cycle < s.fbNext[i] {
			continue
		}
		for s.fbNext[i] <= cycle {
			s.fbNext[i] += s.fbStep[i]
		}
		fb := workload.Feedback{
			Cycle:           cycle,
			Interval:        s.fbStep[i],
			Retired:         s.cores[i].Retired(),
			IPC:             s.cores[i].IPC(cycle),
			AvgLatencyNs:    s.latencies[i].Mean(),
			RefreshInterval: s.cfg.Timing.REFI,
			RefreshWindow:   s.cfg.Timing.REFW,
		}
		if s.bh != nil {
			fb.Score = s.bh.Score(i)
			fb.Suspect = s.bh.IsSuspect(i)
			fb.Quota = s.bh.MSHRQuota(i)
			fb.FullQuota = s.bh.Params().MSHRs
			fb.Threat = s.bh.Params().Threat
		}
		obs.ObserveFeedback(fb)
	}
}

// Memory exposes the multi-channel memory subsystem.
func (s *System) Memory() *memsys.Interleaved { return s.mem }

// Controller exposes channel 0's memory controller (tests,
// characterisation; single-channel systems have only this one).
func (s *System) Controller() *memctrl.Controller { return s.mem.Channel(0) }

// Cache exposes the LLC.
func (s *System) Cache() *cache.LLC { return s.llc }

// BreakHammer exposes the throttling mechanism (nil when disabled).
func (s *System) BreakHammer() *core.BreakHammer { return s.bh }

// Mechanism exposes channel 0's mitigation instance (nil for "none").
func (s *System) Mechanism() mitigation.Mechanism {
	if len(s.mechs) == 0 {
		return nil
	}
	return s.mechs[0]
}

// Mechanisms exposes every channel's mitigation instance.
func (s *System) Mechanisms() []mitigation.Mechanism { return s.mechs }

// finishCheckMask sets the cadence of the benign-finished check:
// runDetailed tests for completion on every (finishCheckMask+1)-cycle
// boundary, and its skip-ahead jump lands on that boundary, so a run
// stops on the same cycle whether or not idle cycles were skipped.
const finishCheckMask = 1023

// Result holds the outcome of one simulation.
type Result struct {
	MixName string
	Cycles  int64
	Seconds float64 // simulated wall-clock time

	IPC     []float64 // per-thread retired instructions per cycle
	Insts   []int64   // per-thread retired instructions
	Benign  []bool
	RBMPKI  []float64 // per-thread row-buffer misses (demand ACTs) per kilo-instruction
	Latency []*stats.Histogram

	EnergyNJ   float64
	Actions    int64         // mechanism preventive actions, all channels
	MC         memctrl.Stats // merged across channels
	MCChannels []memctrl.Stats
	CacheStats cache.Stats
	BH         *core.Stats // nil when BreakHammer is off

	// Sampling is non-nil exactly when the run used interval sampling:
	// it carries the per-thread error bands and the detailed/fast-
	// forward cycle split. For sampled runs IPC and RBMPKI above hold
	// the window means (Sampling holds their confidence intervals),
	// EnergyNJ is extrapolated from the detailed windows, and MC /
	// CacheStats / Latency count detailed-mode events only.
	Sampling *sampling.Summary

	// RowCensus is non-nil exactly when Config.RowCensus was set.
	RowCensus *RowCensus `json:",omitempty"`

	BenignFinished bool // all benign cores reached the target
}

// RowCensus summarises how hard the run hit individual DRAM rows: how
// many rows, over every channel, took at least 64, 128 and 512
// activations in the whole run. It counts what the channels' activate
// hooks see, so a sampled run's fast-forward activations count too (they
// enter through memctrl.Controller.Activated), unlike the controller's
// event counters, which see detailed spans only.
type RowCensus struct {
	Over64, Over128, Over512 int
}

// Sampled reports whether this result came from interval sampling and
// therefore approximates the exact simulation.
func (r Result) Sampled() bool { return r.Sampling != nil }

// Run executes the simulation until every benign core retires the target
// instruction count (attacker cores are not waited for, matching §7's
// methodology) or MaxCycles elapses. An exact run is one detailed span
// over the whole run; a sampled run alternates detailed spans with
// functional fast-forward (sampled.go).
func (s *System) Run() Result {
	if s.cfg.Sampling.Enabled {
		return s.runSampled()
	}
	return s.collect(s.runDetailed(0, s.cfg.MaxCycles))
}

// runDetailed is the one cycle-accurate driver: it simulates [from, to)
// in the fixed tick order memory subsystem -> LLC -> feedback -> cores ->
// BreakHammer and returns the cycle it stopped at — to, or the finish-
// check boundary at which every benign core was done. It is event-
// batched at three levels, all exact:
//
// Per-core sleep: a core whose Tick made no progress is frozen until one
// of its own events fires, and until then its Tick would be a pure no-op,
// so the driver stops calling it. The wake set: a BreakHammer window
// rotation or an activation under BlockHammer (either may raise a
// quota); the core's NextWake (its head load's known completion time); a
// completion callback for its head load, or under an LSU quota for any of
// its loads (cpu.Core.Wakes, delivered inline by this cycle's memory
// tick); and the LLC reporting that the core's latest refusal may have
// lifted (cache.LLC.RefusalLifted: a quota refusal at a release of an
// MSHR the thread allocated, a full MSHR file at any release, a full read
// queue at any memory progress). Nothing else can unblock a core: quotas
// rise at nothing else, and since threads own disjoint address slices no
// other thread's access turns a refused line into a hit or a merge.
//
// Per-controller sleep: a memory controller whose scheduler found nothing
// legal knows the exact first cycle at which any command it could pick
// becomes legal, and until then its Tick only delivers due read data
// (memctrl.Controller.Tick). This level lives inside the controller, so
// lockstep runs and the benchmark's shadow rig get it too.
//
// Global skip: the cores tick after the memory side, so a memory event
// wakes every core it can unblock in the cycle it happens. After a cycle
// on which no core progressed and no window rotated, every core sleeps,
// and the whole system is frozen until some wake-up signal fires (a
// read-data arrival, the end of a controller's sleep — its next legal
// command or refresh deadline —, a core's known completion time, a
// throttling window boundary, a feedback delivery), whether or not the
// memory side progressed; the driver jumps straight to the earliest one,
// never past to. Only core progress and a rotation advance by one cycle.
//
// Under lockstep the first and third level are off: every core ticks on
// every cycle. Cycles the driver never executes are exactly the cycles a
// lockstep run executes as no-ops, so both produce identical simulations,
// down to the LLC's refusal counters (one count per episode, whatever
// number of ticked retries it lasted).
func (s *System) runDetailed(from, to int64) int64 {
	// The sleep set is stale on entry: a fast-forward span has moved every
	// core's stream since it was last valid. wakeAll also carries a
	// BreakHammer rotation (which may have restored quotas) into the next
	// cycle.
	wakeAll := true

	cycle := from
	for cycle < to {
		memProgress := s.mem.Tick(cycle)
		if s.llc.Tick() {
			memProgress = true
		}
		wakeAll = wakeAll || s.quotaMoved
		s.quotaMoved = false
		s.deliverFeedback(cycle)
		coreProgress := false
		for i, c := range s.cores {
			if s.asleep[i] {
				// Load completions and MSHR releases happen only in the
				// memory tick, so without memory progress only the first
				// two clauses can fire.
				if !wakeAll && cycle < s.coreWake[i] && (!memProgress ||
					c.Wakes() == s.wakesSeen[i] && !s.llc.RefusalLifted(i, memProgress)) {
					continue
				}
				s.asleep[i] = false
			}
			if c.Tick(cycle) {
				coreProgress = true
			} else if !s.lockstep {
				s.asleep[i] = true
				s.coreWake[i] = c.NextWake(cycle)
				s.wakesSeen[i] = c.Wakes()
			}
		}
		wakeAll = s.rotateWindow(cycle)

		if cycle&finishCheckMask == 0 && s.benignFinished() {
			return cycle
		}
		if s.lockstep || coreProgress || wakeAll {
			cycle++
			continue
		}
		wake := s.nextWake(cycle)
		if s.benignFinished() {
			// Stop at the first check boundary after the benign cores
			// finish, as a lockstep run does; land exactly there.
			if nb := (cycle | finishCheckMask) + 1; nb < wake {
				wake = nb
			}
		}
		if wake <= cycle {
			wake = cycle + 1
		}
		if wake > to {
			wake = to
		}
		cycle = wake
	}
	return cycle
}

// rotateWindow ends BreakHammer's throttling window when it expires at
// cycle, and reports whether it did (false when BreakHammer is off).
func (s *System) rotateWindow(cycle int64) bool {
	return s.bh != nil && s.bh.Tick(cycle)
}

// nextWake gathers the earliest wake-up signal across all components.
// It is called only when every core just failed to progress, so
// coreWake[i] holds each core's self-scheduled wake-up. The memory side
// may have progressed on this cycle: a controller's sleep bound is kept
// by every door that can move it (memctrl.Controller.NextWake), so it
// holds after a progressing tick as well.
func (s *System) nextWake(now int64) int64 {
	wake := s.mem.NextWake(now)
	for _, w := range s.coreWake {
		if w < wake {
			wake = w
		}
	}
	if s.bh != nil {
		if w := s.bh.NextWindow(); w > now && w < wake {
			wake = w
		}
	}
	if s.hasFb {
		for i, obs := range s.fbObs {
			if obs != nil && s.fbNext[i] > now && s.fbNext[i] < wake {
				wake = s.fbNext[i]
			}
		}
	}
	return wake
}

func (s *System) benignFinished() bool {
	any := false
	for i, c := range s.cores {
		if !s.benign[i] {
			continue
		}
		any = true
		if !c.Finished() {
			return false
		}
	}
	// An attacker-only system has no finish line; it runs to MaxCycles.
	return any
}

func (s *System) collect(cycle int64) Result {
	threads := len(s.cores)
	merged := s.mem.Stats()
	r := Result{
		Cycles:     cycle,
		Seconds:    s.cfg.Timing.CyclesToNs(cycle) * 1e-9,
		IPC:        make([]float64, threads),
		Insts:      make([]int64, threads),
		Benign:     append([]bool(nil), s.benign...),
		RBMPKI:     make([]float64, threads),
		Latency:    s.latencies,
		MC:         merged,
		CacheStats: *s.llc.Stats(),
	}
	for ch := 0; ch < s.mem.Channels(); ch++ {
		r.MCChannels = append(r.MCChannels, *s.mem.ChannelStats(ch))
	}
	for i, c := range s.cores {
		r.IPC[i] = c.IPC(cycle)
		r.Insts[i] = c.Retired()
		if c.Retired() > 0 {
			r.RBMPKI[i] = float64(merged.DemandACTs[i]) / float64(c.Retired()) * 1000
		}
	}
	durationNs := s.cfg.Timing.CyclesToNs(cycle)
	r.EnergyNJ = s.mem.EnergyNJ(durationNs)
	for _, m := range s.mechs {
		r.Actions += m.Actions()
	}
	if s.bh != nil {
		r.BH = s.bh.Stats()
	}
	if s.rowACTs != nil {
		r.RowCensus = &RowCensus{}
		for _, n := range s.rowACTs {
			if n >= 64 {
				r.RowCensus.Over64++
			}
			if n >= 128 {
				r.RowCensus.Over128++
			}
			if n >= 512 {
				r.RowCensus.Over512++
			}
		}
	}
	r.BenignFinished = s.benignFinished()
	return r
}
