// Package sampling implements SMARTS-style interval sampling for the
// simulator: runs alternate long functional fast-forward windows (state
// warm, timing skipped) with short detailed windows, each prefixed by a
// detailed-but-unmeasured warm-up, and every sampled metric is reported
// as a mean with a Student's-t confidence interval over the per-window
// measurements (internal/stats.Welford).
//
// This package owns the sampling *policy* — parameters, the cycle →
// phase schedule, and the per-window aggregation — while internal/sim
// owns the execution (the functional fast-forward loop itself). The
// split keeps the policy importable from config/fingerprint code
// without dragging in the simulator.
package sampling

import (
	"fmt"
	"math"

	"breakhammer/internal/stats"
)

// Default window sizes (cycles). One period is Warmup + Detail + FF;
// the defaults measure a 50K-cycle window out of every 500K cycles
// (~12% detailed duty) after a 10K-cycle detailed warm-up, which on the
// CI-sized grid keeps every reported metric inside its confidence band
// at well under 1/10 the exact wall-clock (see exp.SamplingValidation).
const (
	DefaultWarmupCycles = 10000
	DefaultDetailCycles = 50000
	DefaultFFCycles     = 440000
)

// Params configures interval sampling for one simulation. The zero
// value means "exact simulation, no sampling". Params is part of
// sim.Config and therefore of sim.Fingerprint: two runs that differ in
// any sampling parameter (including sampled vs exact) can never share a
// results-store key.
type Params struct {
	// Enabled turns interval sampling on. When false the other
	// fields are ignored and must be zero in fingerprints.
	Enabled bool `json:"enabled,omitempty"`
	// WarmupCycles is the detailed-but-unmeasured prefix of each
	// detailed window, letting the pipeline, MSHRs and controller
	// queues refill after a fast-forward stretch before measurement
	// starts. 0 means DefaultWarmupCycles.
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// DetailCycles is the measured detailed window length.
	// 0 means DefaultDetailCycles.
	DetailCycles int64 `json:"detail_cycles,omitempty"`
	// FFCycles is the functional fast-forward window length.
	// 0 means DefaultFFCycles.
	FFCycles int64 `json:"ff_cycles,omitempty"`
}

// Normalized resolves defaults: a disabled Params collapses to the zero
// value (so exact fingerprints are stable across releases that change
// the defaults), an enabled one has every zero field replaced by its
// default. Fingerprinting and the executor both consume the normalized
// form.
func (p Params) Normalized() Params {
	if !p.Enabled {
		return Params{}
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = DefaultWarmupCycles
	}
	if p.DetailCycles == 0 {
		p.DetailCycles = DefaultDetailCycles
	}
	if p.FFCycles == 0 {
		p.FFCycles = DefaultFFCycles
	}
	return p
}

// Validate rejects negative or degenerate window shapes.
func (p Params) Validate() error {
	if !p.Enabled {
		if p.WarmupCycles != 0 || p.DetailCycles != 0 || p.FFCycles != 0 {
			return fmt.Errorf("sampling: window sizes set but sampling not enabled (did you forget -sample?)")
		}
		return nil
	}
	n := p.Normalized()
	if n.WarmupCycles < 0 || n.DetailCycles <= 0 || n.FFCycles <= 0 {
		return fmt.Errorf("sampling: bad window shape warmup=%d detail=%d ff=%d (detail and ff must be positive)",
			n.WarmupCycles, n.DetailCycles, n.FFCycles)
	}
	return nil
}

// Period returns the cycle length of one full sampling period
// (Warmup + Detail + FF) of the normalized parameters.
func (p Params) Period() int64 {
	n := p.Normalized()
	return n.FFCycles + n.WarmupCycles + n.DetailCycles
}

// Phase identifies which sampling regime a cycle falls in.
type Phase int

// The three phases of one sampling period, in schedule order: detailed
// warm-up, then the measured detailed window, then the fast-forward
// stretch. A run therefore starts detailed from cold state, so the
// first measured window captures the cache-warming ramp with the same
// 1/N weight uniform time-sampling gives every other era — starting
// with fast-forward instead would warm the caches functionally for
// free and bias every low-MPKI thread's estimate high.
const (
	PhaseFF Phase = iota
	PhaseWarmup
	PhaseDetail
)

// String names the phase for logs and tests.
func (ph Phase) String() string {
	switch ph {
	case PhaseFF:
		return "ff"
	case PhaseWarmup:
		return "warmup"
	case PhaseDetail:
		return "detail"
	}
	return fmt.Sprintf("phase(%d)", int(ph))
}

// PhaseAt maps a cycle to its phase and the first cycle of the next
// phase. The schedule is a pure function of the cycle number — no
// executor state — so skip-ahead and lockstep runs, and any replay, see
// byte-identical window boundaries.
func (p Params) PhaseAt(cycle int64) (ph Phase, next int64) {
	n := p.Normalized()
	period := n.FFCycles + n.WarmupCycles + n.DetailCycles
	start := cycle - cycle%period
	pos := cycle - start
	switch {
	case pos < n.WarmupCycles:
		return PhaseWarmup, start + n.WarmupCycles
	case pos < n.WarmupCycles+n.DetailCycles:
		return PhaseDetail, start + n.WarmupCycles + n.DetailCycles
	default:
		return PhaseFF, start + period
	}
}

// Estimate is a sampled metric: the mean over per-window measurements
// with a 95% Student's-t confidence interval and the number of windows
// it was estimated from. Lo == Hi == Mean when fewer than two windows
// contributed (the band is honest about thin evidence, not fake-tight).
type Estimate struct {
	Mean float64 `json:"mean"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	N    int64   `json:"n"`
}

// HalfWidth returns half the confidence-interval width.
func (e Estimate) HalfWidth() float64 { return (e.Hi - e.Lo) / 2 }

// estimate converts a Welford accumulator to a 95% Estimate.
func estimate(w *stats.Welford) Estimate {
	mean, lo, hi := w.CI(0.95)
	return Estimate{Mean: mean, Lo: lo, Hi: hi, N: w.N()}
}

// Aggregator folds per-detailed-window measurements into per-thread
// streaming estimates. One AddWindow call per measured window.
type Aggregator struct {
	windows int64
	ipc     []stats.Welford
	rbmpki  []stats.Welford
}

// NewAggregator sizes the aggregator for the given thread count.
func NewAggregator(threads int) *Aggregator {
	return &Aggregator{
		ipc:    make([]stats.Welford, threads),
		rbmpki: make([]stats.Welford, threads),
	}
}

// AddWindow records one detailed window's per-thread IPC and RBMPKI
// samples (slices must match the aggregator's thread count).
// A NaN sample marks a thread with no measurement for this window — a
// core that had already retired its target idles, and averaging its
// zero windows would bias the estimate low — so NaN entries are
// excluded from that thread's estimate and per-thread N may be smaller
// than Windows.
func (a *Aggregator) AddWindow(ipc, rbmpki []float64) {
	if len(ipc) != len(a.ipc) || len(rbmpki) != len(a.rbmpki) {
		panic(fmt.Sprintf("sampling: window sample width %d/%d, want %d", len(ipc), len(rbmpki), len(a.ipc)))
	}
	a.windows++
	for i := range ipc {
		if !math.IsNaN(ipc[i]) {
			a.ipc[i].Add(ipc[i])
		}
		if !math.IsNaN(rbmpki[i]) {
			a.rbmpki[i].Add(rbmpki[i])
		}
	}
}

// Windows returns the number of measured windows folded in so far.
func (a *Aggregator) Windows() int64 { return a.windows }

// Summary materializes the per-thread estimates plus cycle accounting
// filled in by the executor.
func (a *Aggregator) Summary() *Summary {
	s := &Summary{
		Windows: a.Windows(),
		IPC:     make([]Estimate, len(a.ipc)),
		RBMPKI:  make([]Estimate, len(a.rbmpki)),
	}
	for i := range a.ipc {
		s.IPC[i] = estimate(&a.ipc[i])
		s.RBMPKI[i] = estimate(&a.rbmpki[i])
	}
	return s
}

// Summary is the sampled-run sidecar attached to sim.Result: per-thread
// metric estimates with error bands plus how the run's cycles split
// between regimes. Its presence is what marks a Result as approximate.
type Summary struct {
	// Windows is the number of measured detailed windows.
	Windows int64 `json:"windows"`
	// DetailedCycles counts cycles simulated in detail (warm-up,
	// measured windows, and mode-switch drains).
	DetailedCycles int64 `json:"detailed_cycles"`
	// FFCycles counts cycles covered by functional fast-forward.
	FFCycles int64 `json:"ff_cycles"`
	// IPC and RBMPKI hold the per-thread estimates; index i is
	// thread i, matching Result.IPC / Result.RBMPKI.
	IPC    []Estimate `json:"ipc"`
	RBMPKI []Estimate `json:"rbmpki"`
}
