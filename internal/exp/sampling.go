package exp

import (
	"context"
	"fmt"
	"math"

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

// SamplingValidation quantifies the accuracy and speedup of interval
// sampling on a pinned mini-grid: up to two mechanisms (each paired with
// BreakHammer) at the mid N_RH against the attacker mixes, each point
// simulated exactly and sampled. Every row compares one benign metric
// (weighted speedup or unfairness) per mix: exact value, sampled
// estimate with its 95% confidence half-width, relative error and an
// in-band verdict; per-point "speedup" rows compare wall-clock. Both
// sides warm the shared results store — the exact points are the same
// records the regular figures read — so a warm rerun validates without
// simulating anything.
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
		if r.reads != nil {
			// Enumeration: only the exact half is expressible as a Point
			// (the sampled spelling differs only in Config.Sampling, which
			// the tuple cannot carry); prefetching it warms the store
			// record the harness compares against.
			if _, err := r.point(p); err != nil {
				return Table{}, err
			}
			continue
		}
		mixes, err := r.resolvedMixes(p)
		if err != nil {
			return Table{}, err
		}
		exactCfg := r.configFor(p)
		exactCfg.Sampling = sampling.Params{}
		sampledCfg := exactCfg
		sampledCfg.Sampling = params

		// Both spellings of the point go straight to getOrSimulate: the
		// Point tuple cannot carry Config.Sampling, so no queue can lease
		// the sampled twin.
		exactRun, err := r.getOrSimulate(context.Background(), exactCfg, mixes)
		if err != nil {
			return Table{}, err
		}
		sampledRun, err := r.getOrSimulate(context.Background(), sampledCfg, mixes)
		if err != nil {
			return Table{}, err
		}
		exact, exactD := exactRun.Results, exactRun.Elapsed
		sampled, sampledD := sampledRun.Results, sampledRun.Elapsed
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
