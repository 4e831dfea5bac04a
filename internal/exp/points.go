package exp

import (
	"context"
	"fmt"

	"breakhammer/internal/results"
	"breakhammer/internal/sim"
)

// Point identifies one cacheable configuration point of the evaluation: a
// (mechanism, N_RH, ±BreakHammer, mix family) tuple, plus the TH_threat
// override used by Fig. 19's sensitivity sweep. Together with the
// runner's Options it determines the full sim.Config and mix list, and
// therefore the point's content address in the results store.
type Point struct {
	Mech     string  `json:"mech"`                // mitigation mechanism ("none" for the baseline)
	NRH      int     `json:"nrh"`                 // RowHammer threshold
	BH       bool    `json:"bh,omitempty"`        // BreakHammer paired with the mechanism
	Attack   bool    `json:"attack,omitempty"`    // attacker mix family (false = all-benign)
	BHThreat float64 `json:"bh_threat,omitempty"` // 0 = Table 2 default; Fig. 19 sweeps this

	// Scenario names an adaptive attacker strategy from the scenario
	// engine; when set the point simulates the strategy's canonical mix
	// (see mixesFor) instead of the Attack-selected family, and Mech/BH
	// spell the composed defense it runs against.
	Scenario string `json:"scenario,omitempty"`
}

// String renders the point for progress lines and errors.
func (p Point) String() string {
	s := p.Mech
	if p.BH {
		s += "+BH"
	}
	s += fmt.Sprintf(" NRH=%d", p.NRH)
	switch {
	case p.Scenario != "":
		s += " scn=" + p.Scenario
	case p.Attack:
		s += " attack"
	default:
		s += " benign"
	}
	if p.BHThreat != 0 {
		s += fmt.Sprintf(" TH_threat=%g", p.BHThreat)
	}
	return s
}

// configFor expands a point into the full simulation configuration.
func (r *Runner) configFor(p Point) sim.Config {
	cfg := r.opts.Base
	cfg.Mechanism = p.Mech
	cfg.NRH = p.NRH
	cfg.BreakHammer = p.BH
	if p.BHThreat != 0 {
		cfg.BHThreat = p.BHThreat
	}
	return cfg
}

// PointsFor enumerates the configuration points needed to build the named
// experiments ("2", "6", ..., "19"; table and section names contribute
// none), deduplicated across figures: Figs. 8, 9, 10, 12 and 18 share one
// attacker sweep, and every attacker figure shares the no-mitigation
// baseline. Feeding the result to Prefetch warms the store so the figure
// builders run without simulating.
func (r *Runner) PointsFor(names []string) []Point {
	seen := map[Point]bool{}
	var out []Point
	add := func(ps ...Point) {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	baseline := func(attack bool) Point { return Point{Mech: "none", NRH: 1024, Attack: attack} }
	o := r.opts
	for _, name := range names {
		switch name {
		case "2":
			add(baseline(false))
			for _, nrh := range o.NRHs {
				for _, mech := range o.Fig2Mechs {
					add(Point{Mech: mech, NRH: nrh})
				}
			}
		case "6", "7":
			for _, mech := range o.Mechanisms {
				add(Point{Mech: mech, NRH: o.midNRH(), Attack: true},
					Point{Mech: mech, NRH: o.midNRH(), BH: true, Attack: true})
			}
		case "8", "12":
			add(baseline(true))
			for _, nrh := range o.NRHs {
				for _, mech := range o.Mechanisms {
					add(Point{Mech: mech, NRH: nrh, Attack: true},
						Point{Mech: mech, NRH: nrh, BH: true, Attack: true})
				}
			}
		case "9":
			add(baseline(true))
			for _, nrh := range o.NRHs {
				for _, mech := range o.Mechanisms {
					add(Point{Mech: mech, NRH: nrh, BH: true, Attack: true})
				}
			}
		case "10":
			for _, nrh := range o.NRHs {
				for _, mech := range o.Mechanisms {
					if mech == "rega" {
						continue
					}
					add(Point{Mech: mech, NRH: nrh, Attack: true},
						Point{Mech: mech, NRH: nrh, BH: true, Attack: true})
				}
			}
		case "11":
			add(baseline(true))
			for _, mech := range o.Mechanisms {
				add(Point{Mech: mech, NRH: o.minNRH(), Attack: true},
					Point{Mech: mech, NRH: o.minNRH(), BH: true, Attack: true})
			}
		case "13":
			for _, mech := range o.Mechanisms {
				add(Point{Mech: mech, NRH: o.minNRH()},
					Point{Mech: mech, NRH: o.minNRH(), BH: true})
			}
		case "14":
			for _, mech := range o.Mechanisms {
				add(Point{Mech: mech, NRH: o.midNRH()},
					Point{Mech: mech, NRH: o.midNRH(), BH: true})
			}
		case "15", "16":
			for _, nrh := range o.NRHs {
				for _, mech := range o.Mechanisms {
					add(Point{Mech: mech, NRH: nrh},
						Point{Mech: mech, NRH: nrh, BH: true})
				}
			}
		case "17":
			add(baseline(false))
			for _, mech := range o.Mechanisms {
				add(Point{Mech: mech, NRH: o.minNRH()},
					Point{Mech: mech, NRH: o.minNRH(), BH: true})
			}
		case "18":
			add(baseline(true))
			for _, nrh := range o.NRHs {
				for _, mech := range o.Mechanisms {
					add(Point{Mech: mech, NRH: nrh, BH: true, Attack: true})
				}
				add(Point{Mech: "blockhammer", NRH: nrh, Attack: true})
			}
		case "19":
			for _, attack := range []bool{true, false} {
				for _, nrh := range o.NRHs {
					for _, th := range o.THthreats {
						add(Point{Mech: "graphene", NRH: nrh, BH: true, Attack: attack, BHThreat: th})
					}
				}
			}
		case "sampling":
			// Only the exact half of the validation pairs is expressible
			// as Points (the sampled spelling differs only in
			// Config.Sampling, which the tuple cannot carry); prefetching
			// it warms the store records the harness compares against.
			mechs := o.Mechanisms
			if len(mechs) > 2 { // the harness caps itself at two mechanisms
				mechs = mechs[:2]
			}
			for _, mech := range mechs {
				add(Point{Mech: mech, NRH: o.midNRH(), BH: true, Attack: true})
			}
		case "scenarios":
			// The frontier runs at the sweep's lowest (most vulnerable)
			// threshold: preventive-action dynamics are liveliest there,
			// and the decoy's prime-to-threshold cost stays affordable
			// within a scaled-down run.
			for _, d := range o.Defenses {
				for _, strat := range o.Strategies {
					add(Point{Mech: d.Mechanism, NRH: o.minNRH(), BH: d.BH, Scenario: strat})
				}
			}
		}
	}
	return out
}

// Prefetch brings every listed point into the store: it builds a point
// queue over them (deduplicated by store key, see NewQueue) and drains it
// with SetJobs local consumers (each point's mixes additionally run in
// parallel). Completed points persist immediately, so a killed sweep
// resumes where it died. A failing point does not abort the others: the
// sweep runs to the end and the failures come back aggregated as a
// *SweepError, so a rerun only retries what actually failed. Progress
// streams to the callback installed with SetProgress.
func (r *Runner) Prefetch(points []Point) error {
	return r.PrefetchContext(context.Background(), points, nil)
}

// PrefetchContext is Prefetch with cancellation and an optional per-call
// progress callback (nil falls back to the runner's SetProgress
// callback). Cancelling ctx stops picking up new points — points already
// simulating run to completion and persist — and the context error is
// returned. Point failures do not cancel the sweep; they are collected
// and returned as a *SweepError once every other point has finished
// (the context error takes precedence when both occur). Per-call
// progress is what lets one runner serve several concurrent sweeps.
func (r *Runner) PrefetchContext(ctx context.Context, points []Point, progress ProgressFunc) error {
	if progress == nil {
		progress = r.progress
	}
	// The lease TTL is the claim files' default: a local consumer
	// heartbeats its lease — and through it the claim file — every quarter
	// of it, so other processes sharing the cache directory steal a point
	// only from a sweep that died.
	q, err := NewQueue(r, points, results.DefaultClaimTTL, progress)
	if err != nil {
		return err
	}
	return r.Drain(ctx, q)
}
