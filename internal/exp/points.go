package exp

import (
	"context"
	"fmt"

	"breakhammer/internal/results"
	"breakhammer/internal/sampling"
	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
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

	// Sampling pins the point's simulation mode for the sampling
	// validation's twins: SamplingExact simulates every cycle and
	// SamplingSampled runs the validation windows
	// (Runner.validationParams), whatever the sweep's base configuration
	// says; "" is the sweep's own mode.
	Sampling string `json:"sampling,omitempty"`

	// Study marks a point of a study that brings its own workloads and
	// run length instead of a mix family (Table 3's characterisation,
	// Section 5's multi-threaded attackers): one of the Study constants.
	// It selects the mixes (studyMixes) and the configuration tweaks
	// (configFor); Mech/NRH/BH spell the system it runs on as usual.
	Study string `json:"study,omitempty"`
}

// Point.Sampling values.
const (
	SamplingExact   = "exact"
	SamplingSampled = "sampled"
)

// Point.Study values.
const (
	// StudyTable3 characterises one application per class running alone
	// with the row census on; Attack selects the attacker's run instead,
	// which has no finish line and is capped in time.
	StudyTable3 = "table3"
	// StudySingleAttacker and StudyRotatingAttacker are Section 5's two
	// scenarios (see section5Scenarios), four times the usual length.
	StudySingleAttacker   = "sec5-single"
	StudyRotatingAttacker = "sec5-rot2"
)

// studyMixes returns the mixes a study point simulates.
func studyMixes(p Point) ([]workload.Mix, error) {
	if p.Study == StudyTable3 {
		return table3Mixes(p.Attack), nil
	}
	for _, sc := range section5Scenarios() {
		if sc.study == p.Study {
			return []workload.Mix{sc.mix}, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown study %q", p.Study)
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
	if p.Sampling != "" {
		s += " " + p.Sampling
	}
	if p.Study != "" {
		s += " " + p.Study
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
	switch p.Sampling {
	case SamplingExact:
		cfg.Sampling = sampling.Params{}
	case SamplingSampled:
		cfg.Sampling = r.validationParams()
	}
	if p.Mech == "blockhammer" {
		// BlockHammer cannot run sampled (sim.Config.Validate): its points
		// run exact in any sweep, and so share the exact sweep's records.
		cfg.Sampling = sampling.Params{}
	}
	switch p.Study {
	case StudyTable3:
		cfg.RowCensus = true
		if p.Attack {
			cfg.MaxCycles = 2_000_000
		}
	case StudySingleAttacker, StudyRotatingAttacker:
		// Benign medium-intensity applications keep the system busy long
		// enough for the rotation pattern to play out over several phases.
		cfg.TargetInsts *= 4
	}
	return cfg
}

// PointsFor enumerates the configuration points the named experiments
// read, deduplicated across figures in first-read order: Figs. 8, 9, 10,
// 12 and 18 share one attacker sweep, and every attacker figure shares the
// no-mitigation baseline. Static experiments (and unknown names)
// contribute none. Feeding the result to Prefetch warms the store so
// the figure builders run without simulating.
//
// Nothing here knows what a figure reads: each experiment's renderer runs
// against a recording runner (see Runner.point) and its table is thrown
// away. That holds as long as every store read of a renderer goes through
// Runner.point and the set of reads never shrinks on zero-valued results.
func (r *Runner) PointsFor(names []string) []Point {
	var reads []Point
	rec := &Runner{opts: r.opts, store: r.store, reads: &reads}
	for _, name := range names {
		if e, ok := ExperimentByName(name); ok {
			// The only error a recording run can return is a point whose
			// mixes cannot be built; the point is logged all the same and
			// fails with that error when the sweep keys it.
			_, _ = e.Run(rec)
		}
	}
	seen := make(map[Point]bool, len(reads))
	out := reads[:0]
	for _, p := range reads {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
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
