package exp

import (
	"fmt"

	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
)

// metric accessors shared by the figure builders.
func wsOf(r sim.MixResult) float64         { return r.WS }
func unfairnessOf(r sim.MixResult) float64 { return r.Unfairness }
func actionsOf(r sim.MixResult) float64    { return float64(r.Actions) }
func energyOf(r sim.MixResult) float64     { return r.EnergyNJ }

// meanOf averages a metric over a point's mixes.
func meanOf(rs []sim.MixResult, metric func(sim.MixResult) float64) float64 {
	var sum float64
	for _, res := range rs {
		sum += metric(res)
	}
	return sum / float64(len(rs))
}

// Figure6 — BreakHammer's impact on benign weighted speedup per workload
// mix with an attacker present, at the N_RH closest to the paper's 1K.
// Values are WS(mechanism+BH) / WS(mechanism): above 1.0 means
// BreakHammer helps (paper: +84.6% average).
func (r *Runner) Figure6() (Table, error) {
	return r.mixGroupRatioFigure(
		"Figure 6: normalized weighted speedup of benign applications (attacker present)",
		fmt.Sprintf("mech+BH / mech, N_RH=%d; >1 means BreakHammer helps", r.opts.midNRH()),
		r.opts.midNRH(), true, wsOf)
}

// Figure7 — BreakHammer's impact on unfairness (maximum benign slowdown)
// with an attacker present at the mid N_RH. Below 1.0 means BreakHammer
// reduces unfairness (paper: -45.8% average).
func (r *Runner) Figure7() (Table, error) {
	return r.mixGroupRatioFigure(
		"Figure 7: normalized unfairness on benign applications (attacker present)",
		fmt.Sprintf("mech+BH / mech, N_RH=%d; <1 means BreakHammer helps", r.opts.midNRH()),
		r.opts.midNRH(), true, unfairnessOf)
}

// mixGroupRatioFigure builds the per-mix-group ratio tables (Figs. 6, 7,
// 13, 14).
func (r *Runner) mixGroupRatioFigure(title, note string, nrh int, attack bool, metric func(sim.MixResult) float64) (Table, error) {
	t := Table{Title: title, Note: note}
	t.Header = []string{"mix"}
	for _, mech := range r.opts.Mechanisms {
		t.Header = append(t.Header, mech+"+BH")
	}

	type col struct {
		groups  []string
		values  []float64
		overall float64
	}
	cols := make([]col, len(r.opts.Mechanisms))
	for i, mech := range r.opts.Mechanisms {
		base, err := r.results(mech, nrh, false, attack)
		if err != nil {
			return Table{}, err
		}
		with, err := r.results(mech, nrh, true, attack)
		if err != nil {
			return Table{}, err
		}
		cols[i].groups, cols[i].values, cols[i].overall = groupRatioGeomean(with, base, metric)
	}
	if len(cols) == 0 || len(cols[0].groups) == 0 {
		return t, nil
	}
	for gi, g := range cols[0].groups {
		row := []string{g}
		for _, c := range cols {
			row = append(row, f3(c.values[gi]))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, c := range cols {
		row = append(row, f3(c.overall))
	}
	t.AddRow(row...)
	return t, nil
}

// Figure8 — benign weighted speedup, normalized to the no-mitigation
// baseline, as N_RH decreases, with an attacker present. Two columns per
// mechanism (without and with BreakHammer). The paper's reading: +BH
// stays near or above the baseline while bare mechanisms collapse.
func (r *Runner) Figure8() (Table, error) {
	return r.nrhSweepFigure(
		"Figure 8: weighted speedup of benign applications vs N_RH (attacker present)",
		"normalized to no-mitigation baseline; pairs of columns: mech, mech+BH",
		wsOf, baselineColumns(r.opts.Mechanisms, true, true, true))
}

// Figure9 — unfairness normalized to the no-mitigation baseline vs N_RH
// with an attacker present (BreakHammer-paired mechanisms).
func (r *Runner) Figure9() (Table, error) {
	return r.nrhSweepFigure(
		"Figure 9: unfairness on benign applications vs N_RH (attacker present)",
		"mech+BH normalized to no-mitigation baseline; <1 means fairer than baseline",
		unfairnessOf, baselineColumns(r.opts.Mechanisms, true, false, true))
}

// sweepColumn is one column of an N_RH sweep table: the geometric mean
// over mixes of metric(with)/metric(base). A point whose NRH is zero is
// read at each row's threshold; the no-mitigation baseline carries its
// own.
type sweepColumn struct {
	header     string
	with, base Point
}

// baselinePoint is the no-mitigation run of a mix family. N_RH is
// irrelevant without a mechanism, so one point serves every sweep row.
func baselinePoint(attack bool) Point { return Point{Mech: "none", NRH: 1024, Attack: attack} }

// baselineColumns are sweep columns normalized to the family's
// no-mitigation baseline: per mechanism the bare mechanism (bare) and/or
// its BreakHammer pairing (bh).
func baselineColumns(mechs []string, attack, bare, bh bool) []sweepColumn {
	var cols []sweepColumn
	for _, mech := range mechs {
		if bare {
			cols = append(cols, sweepColumn{mech, Point{Mech: mech, Attack: attack}, baselinePoint(attack)})
		}
		if bh {
			cols = append(cols, sweepColumn{mech + "+BH", Point{Mech: mech, BH: true, Attack: attack}, baselinePoint(attack)})
		}
	}
	return cols
}

// nrhSweepFigure builds the N_RH sweep tables (Figs. 2, 8, 9, 12, 15, 16,
// 18): one row per threshold, one cell per column.
func (r *Runner) nrhSweepFigure(title, note string, metric func(sim.MixResult) float64, cols []sweepColumn) (Table, error) {
	t := Table{Title: title, Note: note, Header: []string{"NRH"}}
	for _, c := range cols {
		t.Header = append(t.Header, c.header)
	}
	// Each distinct point is read once, the shared baseline included.
	got := map[Point][]sim.MixResult{}
	read := func(p Point, nrh int) ([]sim.MixResult, error) {
		if p.NRH == 0 {
			p.NRH = nrh
		}
		if rs, ok := got[p]; ok {
			return rs, nil
		}
		rs, err := r.point(p)
		got[p] = rs
		return rs, err
	}
	for _, nrh := range r.opts.NRHs {
		row := []string{fmt.Sprint(nrh)}
		for _, c := range cols {
			base, err := read(c.base, nrh)
			if err != nil {
				return Table{}, err
			}
			with, err := read(c.with, nrh)
			if err != nil {
				return Table{}, err
			}
			row = append(row, f3(ratioGeomean(with, base, metric)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure10 — RowHammer-preventive action counts vs N_RH, with and without
// BreakHammer, normalized per mechanism to its own count at the largest
// N_RH without BreakHammer (the paper's "normalized to no BreakHammer at
// N_RH=4K"). REGA is excluded, as in the paper (its refreshes are issued
// in parallel with activations).
func (r *Runner) Figure10() (Table, error) {
	t := Table{
		Title: "Figure 10: RowHammer-preventive actions vs N_RH (attacker present)",
		Note:  "normalized per mechanism to its own count without BH at the largest N_RH with activity",
	}
	t.Header = []string{"NRH"}
	var mechs []string
	for _, m := range r.opts.Mechanisms {
		if m == "rega" {
			continue
		}
		mechs = append(mechs, m)
	}
	for _, mech := range mechs {
		t.Header = append(t.Header, mech, mech+"+BH")
	}

	// Per-mechanism normalization constant: the mechanism's own average
	// action count without BreakHammer at the largest N_RH where it
	// performed any actions (short harness runs can leave the 4K point at
	// zero for high-threshold mechanisms).
	norm := map[string]float64{}
	for _, mech := range mechs {
		for _, nrh := range r.opts.NRHs {
			rs, err := r.results(mech, nrh, false, true)
			if err != nil {
				return Table{}, err
			}
			if avg := meanOf(rs, actionsOf); avg > 0 {
				norm[mech] = avg
				break
			}
		}
	}
	for _, nrh := range r.opts.NRHs {
		row := []string{fmt.Sprint(nrh)}
		for _, mech := range mechs {
			for _, bh := range []bool{false, true} {
				rs, err := r.results(mech, nrh, bh, true)
				if err != nil {
					return Table{}, err
				}
				avg := meanOf(rs, actionsOf)
				if norm[mech] > 0 {
					row = append(row, f2(avg/norm[mech]))
				} else {
					row = append(row, fmt.Sprintf("%.0f", avg))
				}
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure11 — memory-latency percentiles of benign applications at the
// lowest N_RH with an attacker present: no defense vs mechanism vs
// mechanism+BH.
func (r *Runner) Figure11() (Table, error) {
	return r.latencyFigure(
		"Figure 11: benign memory latency percentiles (ns), attacker present",
		true)
}

// latencyFigure builds Figs. 11 and 17.
func (r *Runner) latencyFigure(title string, attack bool) (Table, error) {
	nrh := r.opts.minNRH()
	t := Table{Title: title, Note: fmt.Sprintf("N_RH=%d", nrh)}
	t.Header = []string{"config"}
	for _, p := range r.opts.Percentiles {
		t.Header = append(t.Header, fmt.Sprintf("P%g", p))
	}

	addRow := func(label string, rs []sim.MixResult) {
		// Merge benign-thread histograms across mixes.
		merged := stats.NewLatencyHistogram()
		for _, res := range rs {
			for tid, h := range res.Latency {
				if res.Benign[tid] {
					merged.AddHistogram(h)
				}
			}
		}
		row := []string{label}
		for _, p := range r.opts.Percentiles {
			row = append(row, fmt.Sprintf("%.0f", merged.Percentile(p)))
		}
		t.AddRow(row...)
	}

	base, err := r.point(baselinePoint(attack))
	if err != nil {
		return Table{}, err
	}
	addRow("no-defense", base)
	for _, mech := range r.opts.Mechanisms {
		bare, err := r.results(mech, nrh, false, attack)
		if err != nil {
			return Table{}, err
		}
		addRow(mech, bare)
		with, err := r.results(mech, nrh, true, attack)
		if err != nil {
			return Table{}, err
		}
		addRow(mech+"+BH", with)
	}
	return t, nil
}

// Figure12 — DRAM energy of benign workloads normalized to the
// no-mitigation baseline vs N_RH, with an attacker present.
func (r *Runner) Figure12() (Table, error) {
	return r.nrhSweepFigure(
		"Figure 12: DRAM energy vs N_RH (attacker present)",
		"normalized to no-mitigation baseline; pairs of columns: mech, mech+BH",
		energyOf, baselineColumns(r.opts.Mechanisms, true, true, true))
}

// Figure18 — BreakHammer-paired mechanisms vs BlockHammer (the
// state-of-the-art throttling-based mitigation) as N_RH decreases, benign
// weighted speedup normalized to the no-mitigation baseline.
func (r *Runner) Figure18() (Table, error) {
	return r.nrhSweepFigure(
		"Figure 18: BreakHammer-paired mechanisms vs BlockHammer (attacker present)",
		"weighted speedup normalized to no-mitigation baseline",
		wsOf, append(baselineColumns(r.opts.Mechanisms, true, false, true),
			baselineColumns([]string{"blockhammer"}, true, true, false)...))
}
