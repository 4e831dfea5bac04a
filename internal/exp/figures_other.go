package exp

import (
	"fmt"
	"math"

	"breakhammer/internal/hwcost"
	"breakhammer/internal/security"
	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
	"breakhammer/internal/workload"
)

// Figure5 — the analytic security bound (Expression 2): maximum
// RowHammer-preventive score an attack thread can hold without detection,
// normalized to the benign average, vs the fraction of hardware threads
// the attacker controls, for the paper's TH_outlier configurations.
func Figure5() Table {
	t := Table{
		Title: "Figure 5: max undetected attacker score vs attacker thread share",
		Note:  "RS_max_atk / RS_avg_ben by Expression 2; inf = suspect identification rigged",
	}
	outliers := security.Figure5Outliers()
	t.Header = []string{"atk%"}
	for _, th := range outliers {
		t.Header = append(t.Header, fmt.Sprintf("TH=%.2f", th))
	}
	for p := 0; p <= 100; p += 10 {
		row := []string{fmt.Sprint(p)}
		for _, th := range outliers {
			v := security.MaxAttackerScore(float64(p)/100, th)
			if math.IsInf(v, 1) {
				row = append(row, "inf")
			} else {
				row = append(row, f2(v))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Figure19 — sensitivity to TH_threat: weighted speedup normalized to the
// TH_threat=4096 configuration, for attack and benign workloads, across
// N_RH values. Cells report the median over mixes with quartiles in
// parentheses (the paper's box plot).
func (r *Runner) Figure19() (Table, error) {
	t := Table{
		Title: "Figure 19: sensitivity to TH_threat (graphene+BH)",
		Note:  "weighted speedup normalized to TH_threat=4096; median (Q1..Q3) over mixes",
	}
	t.Header = []string{"workloads", "NRH"}
	for _, th := range r.opts.THthreats {
		t.Header = append(t.Header, fmt.Sprintf("TH_threat=%g", th))
	}

	run := func(th float64, nrh int, attack bool) ([]sim.MixResult, error) {
		return r.point(Point{Mech: "graphene", NRH: nrh, BH: true, Attack: attack, BHThreat: th})
	}

	refThreat := r.opts.THthreats[len(r.opts.THthreats)-1]
	for _, attack := range []bool{true, false} {
		label := "attack"
		if !attack {
			label = "benign"
		}
		for _, nrh := range r.opts.NRHs {
			ref, err := run(refThreat, nrh, attack)
			if err != nil {
				return Table{}, err
			}
			row := []string{label, fmt.Sprint(nrh)}
			for _, th := range r.opts.THthreats {
				rs, err := run(th, nrh, attack)
				if err != nil {
					return Table{}, err
				}
				var ratios []float64
				for i := range rs {
					if ref[i].WS > 0 {
						ratios = append(ratios, rs[i].WS/ref[i].WS)
					}
				}
				q1, med, q3 := stats.Quartiles(ratios)
				row = append(row, fmt.Sprintf("%.3f (%.3f..%.3f)", med, q1, q3))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Table1 — the simulated system configuration.
func Table1(cfg sim.Config) Table {
	t := Table{Title: "Table 1: simulated system configuration"}
	t.Header = []string{"component", "configuration"}
	t.AddRow("Processor", fmt.Sprintf("4.2 GHz, 4 cores, 4-wide issue (scaled: %d instr/memory-cycle), %d-entry instruction window",
		cfg.Core.IssueWidth, cfg.Core.WindowSize))
	t.AddRow("Last-Level Cache", fmt.Sprintf("%d B lines, %d-way, %d MiB, %d MSHRs",
		cfg.Cache.LineBytes, cfg.Cache.Ways, cfg.Cache.SizeBytes>>20, cfg.Cache.MSHRs))
	t.AddRow("Memory Controller", fmt.Sprintf("%d-entry read / %d-entry write queues; FR-FCFS+Cap with Cap=%d; MOP address mapping",
		cfg.MC.ReadQueue, cfg.MC.WriteQueue, cfg.MC.Cap))
	channels := cfg.Channels
	if channels == 0 {
		channels = 1
	}
	t.AddRow("Main Memory", fmt.Sprintf("DDR5, %d channel(s), %d ranks, %d bank groups, %d banks/group, %dK rows/bank",
		channels, cfg.DRAM.Ranks, cfg.DRAM.BankGroups, cfg.DRAM.BanksPerGroup, cfg.DRAM.RowsPerBank>>10))
	return t
}

// Table2 — BreakHammer's configuration.
func Table2(cfg sim.Config) Table {
	t := Table{Title: "Table 2: BreakHammer configuration"}
	t.Header = []string{"component", "parameter"}
	windowMs := cfg.Timing.CyclesToNs(cfg.BHWindow) / 1e6
	t.AddRow("TH_window", fmt.Sprintf("%.3g ms (%d cycles)", windowMs, cfg.BHWindow))
	threat := cfg.BHThreat
	if threat == 0 {
		threat = 32
	}
	outlier := cfg.BHOutlier
	if outlier == 0 {
		outlier = 0.65
	}
	t.AddRow("TH_threat", fmt.Sprintf("%g", threat))
	t.AddRow("TH_outlier", fmt.Sprintf("%g", outlier))
	t.AddRow("P_oldsuspect", "1")
	t.AddRow("P_newsuspect", "10")
	return t
}

// table3Mixes returns Table 3's single-application mixes: one
// representative application per class or, for attack, the attacker.
func table3Mixes(attack bool) []workload.Mix {
	specs := []workload.Spec{
		workload.ClassSpec(workload.High, 0, 101),
		workload.ClassSpec(workload.Medium, 0, 102),
		workload.ClassSpec(workload.Low, 0, 103),
	}
	if attack {
		specs = []workload.Spec{workload.AttackerSpec(0, 104)}
	}
	mixes := make([]workload.Mix, len(specs))
	for i, spec := range specs {
		mixes[i] = workload.Mix{Name: "char-" + spec.Name, Specs: []workload.Spec{spec}}
	}
	return mixes
}

// Table3 — workload characterisation: RBMPKI and the number of rows with
// more than 512/128/64 activations per throttling-window-scaled interval,
// for one representative application per class plus the attacker, each
// alone on the unmitigated system with the row census on.
func (r *Runner) Table3() (Table, error) {
	t := Table{
		Title: "Table 3: workload characterisation",
		Note:  "per-row ACT counts measured over the whole (scaled) run; paper counts per 64 ms window",
	}
	t.Header = []string{"workload", "class", "RBMPKI", "ACT-512+", "ACT-128+", "ACT-64+"}
	for _, attack := range []bool{false, true} {
		rs, err := r.point(Point{Mech: "none", NRH: r.opts.Base.NRH, Attack: attack, Study: StudyTable3})
		if err != nil {
			return Table{}, err
		}
		for i, mix := range table3Mixes(attack) {
			census := rs[i].RowCensus
			if census == nil {
				continue // a recording runner's zero-valued result
			}
			spec := mix.Specs[0]
			t.AddRow(spec.Name, spec.Class.String(), f2(rs[i].RBMPKI[0]),
				fmt.Sprint(census.Over512), fmt.Sprint(census.Over128), fmt.Sprint(census.Over64))
		}
	}
	return t, nil
}

// Section6 — BreakHammer's hardware-complexity inventory (§6).
func Section6() Table {
	t := Table{Title: "Section 6: hardware complexity"}
	t.Header = []string{"quantity", "value"}
	inv := hwcost.Inventory{Threads: 4, Channels: 1}
	t.AddRow("storage per thread", fmt.Sprintf("%d bits (2x32b scores, 1x16b ACT, 2x1b flags)", hwcost.BitsPerThread))
	t.AddRow("area per channel (65nm)", fmt.Sprintf("%.6f mm²", inv.AreaMM2()))
	full := hwcost.Inventory{Threads: 4, Channels: 4}
	t.AddRow("total area (4 channels)", fmt.Sprintf("%.5f mm²", full.AreaMM2()))
	t.AddRow("fraction of high-end Xeon", fmt.Sprintf("%.4g%%", full.XeonFraction()*100))
	t.AddRow("pipeline", fmt.Sprintf("%d stages @ %.1f GHz = %.2f ns", hwcost.PipelineStages, hwcost.ClockGHz, hwcost.LatencyNs))
	t.AddRow("fits under DDR4 tRRD (2.5 ns)", fmt.Sprint(hwcost.OffCriticalPath(hwcost.TRRDDDR4Ns)))
	t.AddRow("fits under DDR5 tRRD (5 ns)", fmt.Sprint(hwcost.OffCriticalPath(hwcost.TRRDDDR5Ns)))
	return t
}
