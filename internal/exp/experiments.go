package exp

import (
	"fmt"
	"slices"
	"strings"

	"breakhammer/internal/trace"
)

// Experiment is one named, runnable entry of the paper's evaluation —
// the catalogue bhsweep's -figs flag and bhserve's /api/figures both
// dispatch through. Nothing beside Run says what an experiment reads:
// PointsFor enumerates it by rendering Run against a recording runner.
type Experiment struct {
	Name   string // bhsweep -figs name: "2".."19", "table1".."table3", "sec5", "sec6"
	Title  string // one-line display title
	Static bool   // computed from closed-form models only; no simulation behind it
	Run    func(*Runner) (Table, error)
}

// Experiments returns the full catalogue in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", Title: "Table 1: simulated system configuration", Static: true,
			Run: func(r *Runner) (Table, error) { return Table1(r.opts.Base), nil }},
		{Name: "table2", Title: "Table 2: BreakHammer configuration", Static: true,
			Run: func(r *Runner) (Table, error) { return Table2(r.opts.Base), nil }},
		{Name: "table3", Title: "Table 3: workload characterisation", Run: (*Runner).Table3},
		{Name: "2", Title: "Figure 2: mitigation overhead on benign workloads vs N_RH (no attacker)", Run: (*Runner).Figure2},
		{Name: "5", Title: "Figure 5: max undetected attacker score vs attacker thread share", Static: true,
			Run: func(*Runner) (Table, error) { return Figure5(), nil }},
		{Name: "6", Title: "Figure 6: normalized weighted speedup of benign applications (attacker present)", Run: (*Runner).Figure6},
		{Name: "7", Title: "Figure 7: normalized unfairness on benign applications (attacker present)", Run: (*Runner).Figure7},
		{Name: "8", Title: "Figure 8: weighted speedup of benign applications vs N_RH (attacker present)", Run: (*Runner).Figure8},
		{Name: "9", Title: "Figure 9: unfairness on benign applications vs N_RH (attacker present)", Run: (*Runner).Figure9},
		{Name: "10", Title: "Figure 10: RowHammer-preventive actions vs N_RH (attacker present)", Run: (*Runner).Figure10},
		{Name: "11", Title: "Figure 11: benign memory latency percentiles (ns), attacker present", Run: (*Runner).Figure11},
		{Name: "12", Title: "Figure 12: DRAM energy vs N_RH (attacker present)", Run: (*Runner).Figure12},
		{Name: "13", Title: "Figure 13: normalized weighted speedup (no attacker)", Run: (*Runner).Figure13},
		{Name: "14", Title: "Figure 14: normalized unfairness (no attacker)", Run: (*Runner).Figure14},
		{Name: "15", Title: "Figure 15: weighted speedup of mech+BH vs bare mech (no attacker) by N_RH", Run: (*Runner).Figure15},
		{Name: "16", Title: "Figure 16: unfairness of mech+BH vs bare mech (no attacker) by N_RH", Run: (*Runner).Figure16},
		{Name: "17", Title: "Figure 17: benign memory latency percentiles (ns), no attacker", Run: (*Runner).Figure17},
		{Name: "18", Title: "Figure 18: BreakHammer-paired mechanisms vs BlockHammer (attacker present)", Run: (*Runner).Figure18},
		{Name: "19", Title: "Figure 19: sensitivity to TH_threat (graphene+BH)", Run: (*Runner).Figure19},
		{Name: "sec5", Title: "Section 5: multi-threaded attack scenarios (graphene+BH)", Run: (*Runner).Section5},
		{Name: "scenarios", Title: "Adversarial scenarios: adaptive strategies vs composed defenses (security/performance frontier)", Run: (*Runner).Scenarios},
		{Name: "sampling", Title: "Sampling validation: sampled vs exact metrics on a pinned mini-grid (error bands, wall-clock speedup)", Run: (*Runner).SamplingValidation},
		{Name: "sec6", Title: "Section 6: hardware complexity", Static: true,
			Run: func(*Runner) (Table, error) { return Section6(), nil }},
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

// ParseExperimentList resolves a command-line experiment selection —
// "all" or a comma-separated list of catalogue names — to the names it
// selects, in the order given ("all": catalogue order). An unknown name
// is an error that lists the catalogue.
func ParseExperimentList(list string) ([]string, error) {
	var catalogue []string
	for _, e := range Experiments() {
		catalogue = append(catalogue, e.Name)
	}
	if list == "all" {
		return catalogue, nil
	}
	var names []string
	for _, f := range strings.Split(list, ",") {
		name := strings.TrimSpace(f)
		if !slices.Contains(catalogue, name) {
			return nil, fmt.Errorf("unknown experiment %q (want \"all\" or names from %s)", name, strings.Join(catalogue, ","))
		}
		names = append(names, name)
	}
	return names, nil
}

// Coverage reports the store coverage of the named experiment: how many
// of the simulation points it reads are already present versus how many
// it needs in total. Static experiments report (0, 0) — always fully
// covered. An experiment whose cached count equals its total renders
// without simulating anything.
func (r *Runner) Coverage(name string) (cached, total int, err error) {
	keyed, err := r.experimentKeys(name)
	if err != nil {
		return 0, 0, err
	}
	return r.store.Coverage(keyed.keys), len(keyed.keys), nil
}

// experimentKeys returns the memoized keyed points of the named
// experiment. Keys are pure functions of the runner's immutable Options
// and (for trace-backed options) the trace files' contents, so the list is
// derived once per trace epoch; a server listing its catalogue on every
// page poll must not re-enumerate and re-key the whole sweep each time.
//
// keyMu is released while the list is built: building it keys every point
// through PointKey, which takes keyMu itself. Two callers missing at once
// both build — from the same memoized point keys, so to the same list.
func (r *Runner) experimentKeys(name string) (keyedPoints, error) {
	r.keyMu.Lock()
	err := r.refreshKeyEpochLocked()
	keyed, ok := r.pointKeys[name]
	epoch := r.keyEpoch
	r.keyMu.Unlock()
	if err != nil || ok {
		return keyed, err
	}
	keyed, err = r.keyPoints(r.PointsFor([]string{name}))
	if err != nil {
		return keyedPoints{}, err
	}
	r.keyMu.Lock()
	if r.keyEpoch == epoch { // else a trace changed meanwhile: the list may straddle the edit
		r.pointKeys[name] = keyed
	}
	r.keyMu.Unlock()
	return keyed, nil
}

// refreshKeyEpochLocked drops every memoized key when the trace
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
		r.keys = make(map[Point]string)
		r.pointKeys = make(map[string]keyedPoints)
	}
	return nil
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
// stable sweep order with per-point cache status. Static experiments
// report an empty list. The keys
// are memoized exactly like Coverage's, and the cache-status probe
// reads the store's in-memory table, so a large catalogue page costs
// one map lookup per row.
func (r *Runner) PointCoverageFor(name string) ([]PointCoverage, error) {
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
