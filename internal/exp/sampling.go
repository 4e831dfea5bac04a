package exp

import (
	"fmt"
	"math"
	"time"

	"breakhammer/internal/sampling"
)

// samplingRelTolerance is the relative-error floor of the validation
// verdict: a sampled metric is in band when it lies within the estimate's
// confidence interval half-width or within this fraction of the exact
// value, whichever is larger. The floor keeps near-zero half-widths
// (few, very consistent windows) from flagging sub-percent deviations.
const samplingRelTolerance = 0.10

// validationParams returns the sampling windows the validation harness
// runs with: the sweep's own windows when the base configuration samples
// (the user is validating exactly what their sweep runs), otherwise
// CI-scale windows sized for the default short runs — the package
// defaults assume paper-scale multi-million-cycle simulations and would
// never open a measured window inside a FastConfig run. The fallback
// shape came out of a sensitivity sweep: warm-ups under ~4K cycles
// leave the controller queues shallower than steady state under attack
// and bias latency-bound (low-MPKI) threads high, while periods beyond
// ~150K cycles starve the run of windows and degenerate the bands.
func (r *Runner) validationParams() sampling.Params {
	if r.opts.Base.Sampling.Enabled {
		return r.opts.Base.Sampling.Normalized()
	}
	return sampling.Params{Enabled: true, WarmupCycles: 4_000, DetailCycles: 12_000, FFCycles: 134_000}
}

// samplingVerdict renders one metric comparison row: the sampled value
// is in band when it deviates from the exact value by no more than the
// confidence half-width or the relative-tolerance floor.
func samplingVerdict(exact, sampled float64, band *sampling.Estimate) (half string, verdict string) {
	tol := samplingRelTolerance * math.Abs(exact)
	half = "-"
	if band != nil {
		h := band.HalfWidth()
		half = f3(h)
		if h > tol {
			tol = h
		}
	}
	if math.Abs(sampled-exact) <= tol {
		return half, "ok"
	}
	return half, "OUT"
}

// recordedElapsed returns the wall-clock the store holds for p's
// simulation, recorded by whichever process ran it; zero when there is
// none (a store that lost the timing record, or a recording runner, which
// keys nothing — see Runner.point).
func (r *Runner) recordedElapsed(p Point) time.Duration {
	if r.reads != nil {
		return 0
	}
	key, err := r.PointKey(p)
	if err != nil {
		return 0
	}
	d, _ := r.store.Elapsed(key)
	return d
}

// SamplingValidation quantifies the accuracy and speedup of interval
// sampling on a pinned mini-grid: up to two mechanisms (each paired with
// BreakHammer) at the mid N_RH against the attacker mixes, each point
// simulated exactly and sampled. Every row compares one benign metric
// (weighted speedup or unfairness) per mix: exact value, sampled
// estimate with its 95% confidence half-width, relative error and an
// in-band verdict; per-point "speedup" rows compare the wall-clock
// recorded when each side was simulated. Both sides are points like any
// other (Point.Sampling pins the mode), so sweeps prefetch, lease and
// count them; the exact ones are the same records the regular figures
// read whenever the sweep itself runs exact.
func (r *Runner) SamplingValidation() (Table, error) {
	o := r.opts
	mechs := o.Mechanisms
	if len(mechs) > 2 {
		mechs = mechs[:2]
	}
	params := r.validationParams()
	t := Table{
		Title: "Sampling validation: sampled vs exact (mid N_RH, attacker present)",
		Note: fmt.Sprintf("windows: warmup=%d detail=%d ff=%d cycles; in-band: |sampled-exact| <= max(95%% CI half-width, %.0f%% of exact)",
			params.WarmupCycles, params.DetailCycles, params.FFCycles, samplingRelTolerance*100),
		Header: []string{"point", "mix", "metric", "exact", "sampled", "ci±", "rel-err", "verdict"},
	}
	for _, mech := range mechs {
		p := Point{Mech: mech, NRH: o.midNRH(), BH: true, Attack: true}
		exactP, sampledP := p, p
		exactP.Sampling, sampledP.Sampling = SamplingExact, SamplingSampled
		exact, err := r.point(exactP)
		if err != nil {
			return Table{}, err
		}
		sampled, err := r.point(sampledP)
		if err != nil {
			return Table{}, err
		}
		exactD, sampledD := r.recordedElapsed(exactP), r.recordedElapsed(sampledP)
		label := p.String()
		for i := range exact {
			mix := exact[i].MixName
			addMetric := func(name string, ev, sv float64, band *sampling.Estimate) {
				rel := "-"
				if ev != 0 {
					rel = fmt.Sprintf("%.1f%%", 100*math.Abs(sv-ev)/math.Abs(ev))
				}
				half, verdict := samplingVerdict(ev, sv, band)
				t.AddRow(label, mix, name, f3(ev), f3(sv), half, rel, verdict)
			}
			addMetric("WS", exact[i].WS, sampled[i].WS, sampled[i].WSBand)
			addMetric("unfairness", exact[i].Unfairness, sampled[i].Unfairness, sampled[i].UnfairnessBand)
		}
		speedup := "-"
		if sampledD > 0 {
			speedup = fmt.Sprintf("%.1fx", exactD.Seconds()/sampledD.Seconds())
		}
		t.AddRow(label, "(all)", "speedup",
			fmt.Sprintf("%.2fs", exactD.Seconds()), fmt.Sprintf("%.2fs", sampledD.Seconds()),
			"-", speedup, "-")
	}
	return t, nil
}
