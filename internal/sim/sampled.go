package sim

import (
	"math"

	"breakhammer/internal/sampling"
)

// This file implements the sampled execution mode: SMARTS-style interval
// sampling with a functional fast-forward between detailed windows.
//
// The run alternates three regimes, scheduled as a pure function of the
// cycle number (sampling.Params.PhaseAt):
//
//	[ warm-up (detailed, unmeasured) ][ detail (measured) ][ fast-forward ] ...
//
// Detailed regimes run the ordinary cycle-accurate driver (runDetailed).
// The fast-forward regime replays every core's instruction stream
// functionally: the LLC is kept warm through timing-free lookups and
// installs, DRAM row-buffer state lives in a per-channel shadow table
// that detects row activations, and those activations drive the
// mitigation mechanisms' trigger state and BreakHammer's blame ledger at
// real cycle timestamps — so adaptive attackers, throttling windows and
// counter-reset periods all behave as in detailed mode. What the
// fast-forward does NOT model: command scheduling, queueing, bank timing
// conflicts, and latency (cores advance on a fixed cost model instead).
// Measurement happens only inside detailed windows, so fast-forward
// approximations affect accuracy only through warm-up state, and the
// error is quantified by the per-window confidence intervals plus
// exp.SamplingValidation.
//
// The per-interval feedback seam fires at exactly the same cycles as in
// an exact run: fast-forward steps never jump past a pending fbNext
// deadline (nor a throttling-window boundary or a functional-refresh
// deadline), so deliverFeedback runs at the identical cadence.

// ffQuantum caps a fast-forward step: finish checks, BreakHammer ticks
// and functional state advance at least this often.
const ffQuantum = 1024

// ffMLP approximates the memory-level parallelism over which a cache
// miss's latency is amortized in the fast-forward cost model. The
// detailed core overlaps misses across its 128-entry window; 4
// concurrent misses matches the typical demand MLP the detailed model
// sustains on the paper's workloads.
const ffMLP = 4

// ffState is the functional fast-forward machinery: shadow DRAM row
// state, the instruction-pacing cost model, and cycle accounting.
type ffState struct {
	sys *System

	// rows[channel][bank] is the shadow open row (-1 = closed). A
	// functional access whose mapped row differs counts as an
	// activation and feeds the mechanisms and BreakHammer.
	rows [][]int

	// closers[channel] precharges one shadow bank of that channel: what
	// the channel's controller is handed (SetFunctional) for the length of
	// a fast-forward span, so a preventive action resolves functionally.
	closers []func(bank int)

	nextRefresh int64 // next functional all-bank refresh deadline

	// debt[i] is core i's replay overshoot in issue-slot units (one
	// unit = 1/IssueWidth cycle): a step stops after completing the
	// record that crosses its budget, and the overrun carries into the
	// next step so pacing stays exact on average.
	debt []int64

	width     int64 // issue-slot units per cycle (IssueWidth)
	missUnits int64 // extra units charged per LLC read miss

	// rate[i] is core i's calibrated pace in instructions per cycle —
	// its most recently measured detail-window IPC (negative until the
	// first sample, when the static cost model paces instead). The
	// feedback keeps relative thread progress under contention honest:
	// the cost model alone would let high-MPKI threads race ahead of
	// reality, distorting which "era" of the run the measured windows
	// sample. carry[i] is the fractional-instruction remainder of rate
	// pacing, carried across spans so the pace stays exact on average.
	rate  []float64
	carry []float64

	detailedCycles int64 // cycles simulated in detail (incl. warm-up and drains)
	ffCycles       int64 // cycles covered functionally
}

func newFFState(s *System) *ffState {
	banks := s.cfg.DRAM.TotalBanks()
	ff := &ffState{
		sys:         s,
		rows:        make([][]int, s.mem.Channels()),
		closers:     make([]func(bank int), s.mem.Channels()),
		nextRefresh: s.cfg.Timing.REFI,
		debt:        make([]int64, len(s.cores)),
		rate:        make([]float64, len(s.cores)),
		carry:       make([]float64, len(s.cores)),
		width:       int64(s.cfg.Core.IssueWidth),
	}
	for i := range ff.rate {
		ff.rate[i] = -1
	}
	for ch := range ff.rows {
		ff.rows[ch] = make([]int, banks)
		for b := range ff.rows[ch] {
			ff.rows[ch][b] = -1
		}
		rows := ff.rows[ch]
		ff.closers[ch] = func(bank int) { rows[bank] = -1 }
	}
	// Cost model: a read miss stalls the window for roughly the row
	// activation plus the read burst (RCD+CL+BL cycles), amortized over
	// ffMLP overlapping misses. In issue-slot units, floor 1.
	t := s.cfg.Timing
	ff.missUnits = (t.RCD + t.CL + t.BL) * ff.width / ffMLP
	if ff.missUnits < 1 {
		ff.missUnits = 1
	}
	return ff
}

// refresh performs the functional all-bank refresh: every shadow row
// closes, exactly what a detailed REF leaves behind.
func (ff *ffState) refresh() {
	for ch := range ff.rows {
		for b := range ff.rows[ch] {
			ff.rows[ch][b] = -1
		}
	}
}

// access routes one functional memory access through the shadow row
// table: a bank whose open row differs (or is closed) takes an
// activation at the given cycle, reported through the owning channel's
// activate hooks (memctrl.Controller.Activated) — the one door the
// detailed controller's ACTs use too, so the mechanism, BreakHammer and
// every other observer see it once, in the detailed order.
func (ff *ffState) access(line uint64, thread int, now int64) {
	s := ff.sys
	addr := s.mem.Mapper().Map(line)
	if ff.rows[addr.Channel][addr.Bank] == addr.Row {
		return // shadow row hit: no activation
	}
	ff.rows[addr.Channel][addr.Bank] = addr.Row
	s.mem.Channel(addr.Channel).Activated(addr.Bank, addr.Row, thread, now)
}

// runSampled is the sampled-mode main loop. It walks the cycle-pure
// phase schedule: fast-forward spans replay functionally, warm-up spans
// run detailed but unmeasured, detail spans run detailed and contribute
// one per-thread sample each to the aggregator.
func (s *System) runSampled() Result {
	p := s.cfg.Sampling.Normalized()
	threads := len(s.cores)
	ff := newFFState(s)
	agg := sampling.NewAggregator(threads)

	startRetired := make([]int64, threads)
	startACTs := make([]int64, threads)
	startFinished := make([]bool, threads)

	cycle := int64(0)
	for cycle < s.cfg.MaxCycles {
		ph, next := p.PhaseAt(cycle)
		if next > s.cfg.MaxCycles {
			next = s.cfg.MaxCycles
		}
		switch ph {
		case sampling.PhaseFF:
			// Mode switch: run the detailed machinery (cores retiring
			// only) until every in-flight access lands, so functional
			// replay starts from quiescent state and no load is ever
			// half-simulated. Drain cycles are detailed, unmeasured.
			drained := s.drainDetailed(cycle)
			ff.detailedCycles += drained - cycle
			cycle = drained
			if cycle < next {
				for ch, closed := range ff.closers {
					s.mem.Channel(ch).SetFunctional(closed)
				}
				cycle = s.runFFSpan(ff, cycle, next)
				// Back to queueing, and realign each controller's refresh
				// schedule to the jump target; the skipped refreshes ran
				// functionally.
				for ch := range ff.closers {
					s.mem.Channel(ch).SetFunctional(nil)
					s.mem.Channel(ch).SkipTo(cycle)
				}
			}
		case sampling.PhaseWarmup:
			end := s.runDetailed(cycle, next)
			ff.detailedCycles += end - cycle
			cycle = end
		case sampling.PhaseDetail:
			merged := s.mem.Stats()
			for i, c := range s.cores {
				startRetired[i] = c.Retired()
				startACTs[i] = merged.DemandACTs[i]
				startFinished[i] = c.Finished()
			}
			end := s.runDetailed(cycle, next)
			ff.detailedCycles += end - cycle
			// A window truncated by the finish line still contributes
			// if at least half of it ran; shorter fragments would
			// over-weight boundary noise.
			if elapsed := end - cycle; elapsed*2 >= p.DetailCycles {
				ipc := make([]float64, threads)
				rbmpki := make([]float64, threads)
				merged = s.mem.Stats()
				for i, c := range s.cores {
					// A core that had already retired its target idles;
					// NaN excludes it from this window (averaging its
					// zeros would drag the estimate toward zero — the
					// exact loop divides by the finish time instead). A
					// core finishing mid-window contributes its active
					// prefix only.
					if startFinished[i] {
						ipc[i], rbmpki[i] = math.NaN(), math.NaN()
						continue
					}
					span := elapsed
					if fin := c.Stats().FinishedAt; fin >= 0 && fin < end {
						span = fin - cycle
					}
					if span <= 0 {
						ipc[i], rbmpki[i] = math.NaN(), math.NaN()
						continue
					}
					dRet := c.Retired() - startRetired[i]
					ipc[i] = float64(dRet) / float64(span)
					if dRet > 0 {
						dACT := merged.DemandACTs[i] - startACTs[i]
						rbmpki[i] = float64(dACT) / float64(dRet) * 1000
					}
					// Calibrate the thread's fast-forward pace: its
					// measured IPC replaces the static cost model for
					// subsequent spans (SMARTS-style feedback).
					ff.rate[i] = ipc[i]
				}
				agg.AddWindow(ipc, rbmpki)
			}
			cycle = end
		}
		if s.benignFinished() {
			break
		}
	}
	return s.collectSampled(cycle, ff, agg)
}

// drainDetailed runs the detailed machinery with cores frozen to
// retire-only until the LLC has no in-flight misses and every core
// window is empty. MaxCycles bounds pathological cases.
func (s *System) drainDetailed(from int64) int64 {
	cycle := from
	for cycle < s.cfg.MaxCycles {
		if s.llc.InFlight() == 0 && s.coresDrained() {
			return cycle
		}
		s.mem.Tick(cycle)
		s.llc.Tick()
		s.deliverFeedback(cycle)
		for _, c := range s.cores {
			c.DrainTick(cycle)
		}
		s.rotateWindow(cycle)
		cycle++
	}
	return cycle
}

func (s *System) coresDrained() bool {
	for _, c := range s.cores {
		if c.WindowOccupied() > 0 {
			return false
		}
	}
	return true
}

// runFFSpan covers [from, to) functionally. Steps are bounded by every
// cycle-stamped obligation — feedback deadlines, throttling-window
// boundaries, functional refresh, the step quantum — so those all fire
// at exactly the cycles the detailed driver would fire them at. Where a
// step ends decides how replaySpan interleaves the cores' accesses, so
// the window boundaries bound it whether or not BreakHammer is on: step
// ends are a function of the configuration alone.
func (s *System) runFFSpan(ff *ffState, from, to int64) int64 {
	// The detailed spans before this one performed real refreshes;
	// resume the functional schedule at the next deadline.
	for ff.nextRefresh <= from {
		ff.nextRefresh += s.cfg.Timing.REFI
	}
	window := s.cfg.bhWindow()
	cycle := from
	for cycle < to {
		stepEnd := cycle + ffQuantum
		if stepEnd > to {
			stepEnd = to
		}
		if ff.nextRefresh > cycle && ff.nextRefresh < stepEnd {
			stepEnd = ff.nextRefresh
		}
		if w := (cycle/window + 1) * window; w < stepEnd {
			stepEnd = w
		}
		if s.hasFb {
			for i, obs := range s.fbObs {
				if obs != nil && s.fbNext[i] > cycle && s.fbNext[i] < stepEnd {
					stepEnd = s.fbNext[i]
				}
			}
		}

		ff.replaySpan(cycle, stepEnd)
		if stepEnd == ff.nextRefresh {
			ff.refresh()
			ff.nextRefresh += s.cfg.Timing.REFI
		}
		s.deliverFeedback(stepEnd)
		s.rotateWindow(stepEnd)
		ff.ffCycles += stepEnd - cycle
		cycle = stepEnd
		if s.benignFinished() {
			return cycle
		}
	}
	return cycle
}

// replaySpan advances every core's instruction stream across (from, to]
// on the fast-forward cost model: each instruction costs one issue slot,
// an LLC read miss adds the amortized miss penalty. Accesses keep the
// LLC warm and route through the shadow row table; dirty victims replay
// as writeback traffic exactly as the detailed LLC would emit them.
func (ff *ffState) replaySpan(from, to int64) {
	s := ff.sys
	span := to - from
	for i, c := range s.cores {
		var retired int64
		// step replays one trace record through the functional cache and
		// shadow row state, reporting the record's bubble count and
		// whether it was a read miss (the costed event of the fallback
		// model; stores are fire-and-forget).
		step := func() (bubbles int64, readMiss bool) {
			var line uint64
			var write bool
			bubbles, line, write = c.FFNext()
			hit, victim, victimDirty := s.llc.AccessFunctional(line, i, write)
			if !hit {
				ff.access(line, i, to)
			}
			if victimDirty {
				ff.access(victim, -1, to)
			}
			retired += bubbles + 1
			return bubbles, !hit && !write
		}
		if r := ff.rate[i]; r >= 0 {
			// Calibrated: pace by the thread's most recent measured IPC.
			target := float64(span)*r + ff.carry[i]
			for float64(retired) < target {
				step()
			}
			ff.carry[i] = target - float64(retired)
		} else {
			// First span, no measurement yet: pace by the static cost
			// model (bubbles+1 issue slots per record, read misses
			// charged an amortized activation+burst penalty).
			budget := span*ff.width - ff.debt[i]
			for budget > 0 {
				bubbles, readMiss := step()
				cost := bubbles + 1
				if readMiss {
					cost += ff.missUnits
				}
				budget -= cost
			}
			ff.debt[i] = -budget
		}
		c.CreditRetired(retired, to)
	}
}

// collectSampled assembles the sampled Result: the ordinary collection,
// with IPC and RBMPKI replaced by the window means (their confidence
// intervals ride along in Sampling), and energy extrapolated from the
// detailed windows over the full covered span.
func (s *System) collectSampled(cycle int64, ff *ffState, agg *sampling.Aggregator) Result {
	res := s.collect(cycle)
	sum := agg.Summary()
	sum.DetailedCycles = ff.detailedCycles
	sum.FFCycles = ff.ffCycles
	res.Sampling = sum
	if sum.Windows > 0 {
		for i := range res.IPC {
			// A thread with no measured windows (it finished inside the
			// first fast-forward span) keeps its exact-path value from
			// collect(); its estimate is pinned to that point so band
			// propagation sees a zero-width interval rather than zeros.
			if sum.IPC[i].N > 0 {
				res.IPC[i] = sum.IPC[i].Mean
			} else {
				sum.IPC[i] = sampling.Estimate{Mean: res.IPC[i], Lo: res.IPC[i], Hi: res.IPC[i]}
			}
			if sum.RBMPKI[i].N > 0 {
				res.RBMPKI[i] = sum.RBMPKI[i].Mean
			} else {
				sum.RBMPKI[i] = sampling.Estimate{Mean: res.RBMPKI[i], Lo: res.RBMPKI[i], Hi: res.RBMPKI[i]}
			}
		}
	}
	// collect() charged background energy across the whole run but saw
	// activity from detailed windows only; extrapolate the detailed
	// windows' full energy (activity + their share of background) over
	// the covered span instead.
	if ff.detailedCycles > 0 && cycle > 0 {
		detailNs := s.cfg.Timing.CyclesToNs(ff.detailedCycles)
		totalNs := s.cfg.Timing.CyclesToNs(cycle)
		res.EnergyNJ = s.mem.EnergyNJ(detailNs) * (totalNs / detailNs)
	}
	return res
}
