package exp

import "fmt"

// Figure2 — the motivation experiment (§3): system performance of
// RowHammer mitigation mechanisms on all-benign workloads, normalized to
// a baseline with no mitigation, as N_RH decreases. The paper's reading:
// all mechanisms degrade as N_RH shrinks; Hydra degrades least, AQUA and
// PARA most.
func (r *Runner) Figure2() (Table, error) {
	return r.nrhSweepFigure(
		"Figure 2: mitigation overhead on benign workloads vs N_RH (no attacker)",
		"weighted speedup normalized to no-mitigation baseline; lower = more overhead",
		wsOf, baselineColumns(r.opts.Fig2Mechs, false, true, false))
}

// Figure13 — BreakHammer's impact on weighted speedup per mix group with
// no attacker, at the lowest N_RH. The paper's reading: ratios cluster at
// 1.0 (+0.7% average).
func (r *Runner) Figure13() (Table, error) {
	return r.mixGroupRatioFigure(
		"Figure 13: normalized weighted speedup (no attacker)",
		fmt.Sprintf("mech+BH / mech, N_RH=%d; ≈1 means BreakHammer is harmless", r.opts.minNRH()),
		r.opts.minNRH(), false, wsOf)
}

// Figure14 — BreakHammer's impact on unfairness with no attacker at the
// mid N_RH (paper: +0.9% average, i.e. ≈1.0).
func (r *Runner) Figure14() (Table, error) {
	return r.mixGroupRatioFigure(
		"Figure 14: normalized unfairness (no attacker)",
		fmt.Sprintf("mech+BH / mech, N_RH=%d", r.opts.midNRH()),
		r.opts.midNRH(), false, unfairnessOf)
}

// Figure15 — weighted speedup of mech+BH normalized to the bare mechanism
// on all-benign workloads as N_RH decreases.
func (r *Runner) Figure15() (Table, error) {
	return r.nrhSweepFigure(
		"Figure 15: weighted speedup of mech+BH vs bare mech (no attacker) by N_RH",
		"≈1 everywhere means BreakHammer never hurts benign-only workloads",
		wsOf, r.bhOverBareColumns())
}

// Figure16 — unfairness of mech+BH normalized to the bare mechanism on
// all-benign workloads as N_RH decreases.
func (r *Runner) Figure16() (Table, error) {
	return r.nrhSweepFigure(
		"Figure 16: unfairness of mech+BH vs bare mech (no attacker) by N_RH",
		"paper: +0.9% average; small deviations in both directions",
		unfairnessOf, r.bhOverBareColumns())
}

// bhOverBareColumns are the benign-only sweep columns of Figs. 15 and 16:
// each mechanism's BreakHammer pairing over the bare mechanism at the same
// N_RH.
func (r *Runner) bhOverBareColumns() []sweepColumn {
	var cols []sweepColumn
	for _, mech := range r.opts.Mechanisms {
		cols = append(cols, sweepColumn{mech + "+BH", Point{Mech: mech, BH: true}, Point{Mech: mech}})
	}
	return cols
}

// Figure17 — memory-latency percentiles with no attacker at the lowest
// N_RH (paper: BreakHammer induces no latency overhead).
func (r *Runner) Figure17() (Table, error) {
	return r.latencyFigure(
		"Figure 17: benign memory latency percentiles (ns), no attacker",
		false)
}
