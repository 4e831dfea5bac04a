package exp

import (
	"strings"

	"breakhammer/internal/sim"
	"breakhammer/internal/trace"
)

// Experiment is one named, runnable entry of the paper's evaluation —
// the catalogue bhsweep's -figs flag and bhserve's /api/figures both
// dispatch through.
type Experiment struct {
	Name   string // bhsweep -figs name: "2".."19", "table1".."table3", "sec5", "sec6"
	Title  string // one-line display title
	Static bool   // computed from closed-form models only; no simulation behind it
	Run    func(*Runner) (Table, error)
}

// Experiments returns the full catalogue in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table 1: simulated system configuration", true,
			func(r *Runner) (Table, error) { return Table1(r.opts.Base), nil }},
		{"table2", "Table 2: BreakHammer configuration", true,
			func(r *Runner) (Table, error) { return Table2(r.opts.Base), nil }},
		{"table3", "Table 3: workload characterisation", false, (*Runner).Table3},
		{"2", "Figure 2: mitigation overhead on benign workloads vs N_RH (no attacker)", false, (*Runner).Figure2},
		{"5", "Figure 5: max undetected attacker score vs attacker thread share", true,
			func(*Runner) (Table, error) { return Figure5(), nil }},
		{"6", "Figure 6: normalized weighted speedup of benign applications (attacker present)", false, (*Runner).Figure6},
		{"7", "Figure 7: normalized unfairness on benign applications (attacker present)", false, (*Runner).Figure7},
		{"8", "Figure 8: weighted speedup of benign applications vs N_RH (attacker present)", false, (*Runner).Figure8},
		{"9", "Figure 9: unfairness on benign applications vs N_RH (attacker present)", false, (*Runner).Figure9},
		{"10", "Figure 10: RowHammer-preventive actions vs N_RH (attacker present)", false, (*Runner).Figure10},
		{"11", "Figure 11: benign memory latency percentiles (ns), attacker present", false, (*Runner).Figure11},
		{"12", "Figure 12: DRAM energy vs N_RH (attacker present)", false, (*Runner).Figure12},
		{"13", "Figure 13: normalized weighted speedup (no attacker)", false, (*Runner).Figure13},
		{"14", "Figure 14: normalized unfairness (no attacker)", false, (*Runner).Figure14},
		{"15", "Figure 15: weighted speedup of mech+BH vs bare mech (no attacker) by N_RH", false, (*Runner).Figure15},
		{"16", "Figure 16: unfairness of mech+BH vs bare mech (no attacker) by N_RH", false, (*Runner).Figure16},
		{"17", "Figure 17: benign memory latency percentiles (ns), no attacker", false, (*Runner).Figure17},
		{"18", "Figure 18: BreakHammer-paired mechanisms vs BlockHammer (attacker present)", false, (*Runner).Figure18},
		{"19", "Figure 19: sensitivity to TH_threat (graphene+BH)", false, (*Runner).Figure19},
		{"sec5", "Section 5: multi-threaded attack scenarios (graphene+BH)", false, (*Runner).Section5},
		{"scenarios", "Adversarial scenarios: adaptive strategies vs composed defenses (security/performance frontier)", false, (*Runner).Scenarios},
		{"sampling", "Sampling validation: sampled vs exact metrics on a pinned mini-grid (error bands, wall-clock speedup)", false, (*Runner).SamplingValidation},
		{"sec6", "Section 6: hardware complexity", true,
			func(*Runner) (Table, error) { return Section6(), nil }},
	}
}

// ExperimentByName looks an experiment up in the catalogue.
func ExperimentByName(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Coverage reports the store coverage of the named experiment: how many
// of the records it reads are already present versus how many it needs
// in total. Point-sweep figures count simulation points; instrumented
// experiments (Table 3, Section 5) count their one cached rendered
// table; static experiments report (0, 0) — always fully covered. An
// experiment whose cached count equals its total renders without
// simulating anything.
func (r *Runner) Coverage(name string) (cached, total int, err error) {
	switch name {
	case "table3":
		return r.rawCoverage("table3", r.opts.Base)
	case "sec5":
		return r.rawCoverage("sec5", r.section5Config())
	}
	keyed, err := r.experimentKeys(name)
	if err != nil {
		return 0, 0, err
	}
	return r.store.Coverage(keyed.keys), len(keyed.keys), nil
}

// experimentKeys returns the memoized keyed points of the named
// experiment. Keys are pure functions of the runner's immutable Options
// and (for trace-backed options) the trace files' contents, so they are
// derived once per trace epoch; a server listing its catalogue on every
// page poll must not re-fingerprint the whole sweep each time.
func (r *Runner) experimentKeys(name string) (keyedPoints, error) {
	r.keyMu.Lock()
	defer r.keyMu.Unlock()
	if err := r.refreshKeyEpochLocked(); err != nil {
		return keyedPoints{}, err
	}
	if keyed, ok := r.pointKeys[name]; ok {
		return keyed, nil
	}
	keyed, err := r.keyPoints(r.PointsFor([]string{name}))
	if err != nil {
		return keyedPoints{}, err
	}
	r.pointKeys[name] = keyed
	return keyed, nil
}

// refreshKeyEpochLocked drops the memoized key lists when the trace
// files backing the options have changed content since they were
// derived. Synthetic-only options have a constant empty epoch and never
// invalidate. A trace path that becomes unreadable after an epoch was
// established (renamed or deleted under a live server) keeps the last
// epoch's keys serving — the cached points remain valid, and the error
// will surface from the simulation path if a cold point actually needs
// the file. The caller holds keyMu.
func (r *Runner) refreshKeyEpochLocked() error {
	if len(r.opts.Traces) == 0 {
		return nil
	}
	var epoch strings.Builder
	for _, path := range r.opts.Traces {
		// Sidecar- and registry-backed: a stat and a small JSON read per
		// poll, at most one streaming scan per content state even when
		// the sidecar cannot be written (we hold keyMu here).
		hash, err := trace.ContentHash(path)
		if err != nil {
			if r.keyEpoch != "" {
				return nil // fall back to the last resolved epoch
			}
			return err
		}
		epoch.WriteString(hash)
	}
	if e := epoch.String(); e != r.keyEpoch {
		r.keyEpoch = e
		r.pointKeys = make(map[string]keyedPoints)
		r.rawKeys = make(map[string]string)
	}
	return nil
}

// rawCoverage is Coverage for the instrumented experiments stored as one
// rendered table in the raw namespace; the key is memoized like the
// point keys.
func (r *Runner) rawCoverage(label string, cfg sim.Config) (cached, total int, err error) {
	r.keyMu.Lock()
	if err := r.refreshKeyEpochLocked(); err != nil {
		r.keyMu.Unlock()
		return 0, 0, err
	}
	key, ok := r.rawKeys[label]
	if !ok {
		key, err = rawTableKey(label, cfg)
		if err != nil {
			r.keyMu.Unlock()
			return 0, 0, err
		}
		r.rawKeys[label] = key
	}
	r.keyMu.Unlock()
	// The memoized key is the generation-independent base; the store's
	// current generation is applied at query time so coverage tracks
	// invalidations without dropping the memo.
	gen, err := r.store.Generation(r.cacheTTL)
	if err != nil {
		return 0, 0, err
	}
	if r.store.HasRaw(genKey(key, gen)) {
		return 1, 1, nil
	}
	return 0, 1, nil
}

// PointCoverage is one entry of the per-point coverage listing behind
// bhserve's paginated coverage endpoint: the point's human-readable
// label, its content address in the store, and whether the store
// already holds it.
type PointCoverage struct {
	Label  string `json:"label"`
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
}

// PointCoverageFor enumerates the named experiment's points in their
// stable sweep order with per-point cache status. Instrumented
// raw-table experiments (Table 3, Section 5) report their single
// rendered table; static experiments report an empty list. The keys
// are memoized exactly like Coverage's, and the cache-status probe
// goes through the store's key index, so a large catalogue page costs
// one index lookup per row.
func (r *Runner) PointCoverageFor(name string) ([]PointCoverage, error) {
	switch name {
	case "table3":
		return r.rawPointCoverage("table3", r.opts.Base)
	case "sec5":
		return r.rawPointCoverage("sec5", r.section5Config())
	}
	keyed, err := r.experimentKeys(name)
	if err != nil {
		return nil, err
	}
	out := make([]PointCoverage, 0, len(keyed.keys))
	for i, key := range keyed.keys {
		out = append(out, PointCoverage{Label: keyed.points[i].String(), Key: key, Cached: r.store.Has(key)})
	}
	return out, nil
}

// rawPointCoverage is PointCoverageFor for the single-table
// instrumented experiments.
func (r *Runner) rawPointCoverage(label string, cfg sim.Config) ([]PointCoverage, error) {
	key, err := r.tableKey(label, cfg)
	if err != nil {
		return nil, err
	}
	return []PointCoverage{{Label: label, Key: key, Cached: r.store.HasRaw(key)}}, nil
}
