// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (DESIGN.md's per-experiment index), plus ablation
// benchmarks for the design choices called out in DESIGN.md. Each
// benchmark regenerates its experiment at smoke-test scale and reports the
// headline number as a custom metric; `go run ./cmd/bhsweep` produces the
// full-size tables.
package breakhammer_test

import (
	"strconv"
	"strings"
	"testing"

	"breakhammer"
	"breakhammer/internal/core"
	"breakhammer/internal/exp"
	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// benchOptions returns the smoke-test experiment scale used by all
// figure benchmarks.
func benchOptions() exp.Options {
	o := exp.QuickOptions()
	o.Base.TargetInsts = 100_000
	o.Base.BHWindow = 200_000
	// Short smoke runs need low thresholds for attack dynamics to develop
	// within the horizon (EXPERIMENTS.md discusses the time scaling).
	o.NRHs = []int{512, 128}
	o.Mechanisms = []string{"graphene", "rfm"}
	o.Fig2Mechs = []string{"graphene", "rfm"}
	o.THthreats = []float64{32, 4096}
	return o
}

// lastCell extracts the numeric value of the last row's column c.
func lastCell(b *testing.B, t exp.Table, c int) float64 {
	b.Helper()
	row := t.Rows[len(t.Rows)-1]
	v, err := strconv.ParseFloat(strings.Fields(row[c])[0], 64)
	if err != nil {
		b.Fatalf("cell %q: %v", row[c], err)
	}
	return v
}

func benchFigure(b *testing.B, gen func(*exp.Runner) (exp.Table, error), metricCol int, metricName string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchOptions())
		t, err := gen(r)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
		if metricCol > 0 {
			b.ReportMetric(lastCell(b, t, metricCol), metricName)
		}
	}
}

// --- Tables ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Table1(sim.DefaultConfig()); len(t.Rows) != 4 {
			b.Fatal("table 1 malformed")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Table2(sim.DefaultConfig()); len(t.Rows) == 0 {
			b.Fatal("table 2 malformed")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	benchFigure(b, (*exp.Runner).Table3, 5, "attacker-rows-64+")
}

// --- Figures ---

func BenchmarkFigure2(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure2, 1, "normWS-lowNRH")
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := exp.Figure5()
		if len(t.Rows) != 11 {
			b.Fatal("figure 5 malformed")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure6, 1, "WSratio-geomean")
}

func BenchmarkFigure7(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure7, 1, "unfairness-ratio")
}

func BenchmarkFigure8(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure8, 2, "normWS+BH-lowNRH")
}

func BenchmarkFigure9(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure9, 1, "normUnfair-lowNRH")
}

func BenchmarkFigure10(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure10, 1, "actions-norm")
}

func BenchmarkFigure11(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure11, 1, "P50-ns")
}

func BenchmarkFigure12(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure12, 2, "normEnergy+BH")
}

func BenchmarkFigure13(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure13, 1, "WSratio-benign")
}

func BenchmarkFigure14(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure14, 1, "unfair-benign")
}

func BenchmarkFigure15(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure15, 1, "WSratio-lowNRH")
}

func BenchmarkFigure16(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure16, 1, "unfair-lowNRH")
}

func BenchmarkFigure17(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure17, 1, "P50-ns")
}

func BenchmarkFigure18(b *testing.B) {
	benchFigure(b, (*exp.Runner).Figure18, 1, "normWS+BH")
}

func BenchmarkFigure19(b *testing.B) {
	opts := benchOptions()
	opts.NRHs = []int{256}
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(opts)
		t, err := r.Figure19()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkSection6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := exp.Section6(); len(t.Rows) == 0 {
			b.Fatal("section 6 malformed")
		}
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ---

// benchRunWS runs one attack simulation and reports benign WS.
func benchRunWS(b *testing.B, mutate func(*sim.Config)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := sim.FastConfig()
		cfg.TargetInsts = 100_000
		cfg.BHWindow = 200_000
		cfg.Mechanism = "graphene"
		cfg.NRH = 256
		cfg.BreakHammer = true
		mutate(&cfg)
		mix, err := workload.ParseMix("MLLA", 9)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunMix(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.WS, "benignWS")
		b.ReportMetric(float64(res.Actions), "actions")
	}
}

// Ablation: FR-FCFS column-over-row cap (Table 1 uses Cap=4).
func BenchmarkAblationFRFCFSCap1(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.MC.Cap = 1 })
}

func BenchmarkAblationFRFCFSCap4(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.MC.Cap = 4 })
}

func BenchmarkAblationFRFCFSCap16(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.MC.Cap = 16 })
}

// Ablation: throttling window length (Table 2 uses 64 ms; the harness
// scales it with run length).
func BenchmarkAblationWindowShort(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.BHWindow = 50_000 })
}

func BenchmarkAblationWindowLong(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.BHWindow = 2_000_000 })
}

// Ablation: TH_outlier sensitivity (§8.4 fixes 0.65).
func BenchmarkAblationOutlierTight(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.BHOutlier = 0.05 })
}

func BenchmarkAblationOutlierLoose(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.BHOutlier = 0.95 })
}

// Ablation: issue width (single-clock-domain scaling decision).
func BenchmarkAblationIssueWidth4(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.Core.IssueWidth = 4 })
}

func BenchmarkAblationIssueWidth7(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.Core.IssueWidth = 7 })
}

// --- Microbenchmarks of the BreakHammer mechanism itself ---

// BenchmarkBreakHammerScoreUpdate measures Alg. 1's updateScores path:
// §6 claims a per-action decision cheap enough to sit off the critical
// path; here is the software-model equivalent.
func BenchmarkBreakHammerScoreUpdate(b *testing.B) {
	bh := core.New(core.DefaultParams(4, 64, 1<<40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bh.OnActivate(i & 3)
		bh.OnPreventiveAction(int64(i))
	}
}

// BenchmarkBreakHammerQuotaLookup measures the MSHR quota check the LLC
// performs on every miss.
func BenchmarkBreakHammerQuotaLookup(b *testing.B) {
	bh := core.New(core.DefaultParams(4, 64, 1<<40))
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += bh.MSHRQuota(i & 3)
	}
	_ = sink
}

// BenchmarkSimulatorThroughput reports raw simulation speed in
// cycles/sec, the capacity number that sizes full-scale sweeps.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.FastConfig()
		cfg.TargetInsts = 100_000
		cfg.Mechanism = "graphene"
		cfg.NRH = 1024
		cfg.BreakHammer = true
		mix, err := workload.ParseMix("HLLA", 3)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.RunMix(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "cycles/op")
	}
}

// BenchmarkFacadeRun exercises the public API end to end.
func BenchmarkFacadeRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := breakhammer.FastConfig()
		cfg.TargetInsts = 60_000
		cfg.Mechanism = "rfm"
		cfg.NRH = 512
		cfg.BreakHammer = true
		mix, err := breakhammer.ParseMix("LLLA", 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := breakhammer.Run(cfg, mix); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: throttle placement — §4.3's MSHR quota vs §4.4's LSU-level
// unresolved-load limit.
func BenchmarkAblationThrottleAtMSHR(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.ThrottleAt = "mshr" })
}

func BenchmarkAblationThrottleAtLSU(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.ThrottleAt = "lsu" })
}

// BenchmarkSection5 regenerates the §5.2 multi-threaded attack scenarios
// (single attacker vs thread rotation vs owner-level tracking).
func BenchmarkSection5(b *testing.B) {
	opts := benchOptions()
	opts.NRHs = []int{128}
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(opts)
		t, err := r.Section5()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatal("section 5 malformed")
		}
	}
}

// Ablation: address mapping (Table 1's MOP vs row-interleaved baseline).
func BenchmarkAblationAddressMapMOP(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.AddressMap = "mop" })
}

func BenchmarkAblationAddressMapRowInterleaved(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.AddressMap = "rowint" })
}

// --- Simulation-driver benchmarks (skip-ahead vs lockstep) ---

// The detailed driver batches provably idle spans: on a cycle where no
// component makes progress, it jumps straight to the earliest wake-up
// signal and stops ticking individually stalled cores. In lockstep
// (Config.DisableSkipAhead) the same driver ticks every core on every
// cycle and produces the identical simulation
// (sim.TestSkipAheadMatchesEveryCycle); these two benchmarks measure the
// wall-clock difference on the standard attack-mix run.
func BenchmarkLoopSkipAhead(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.DisableSkipAhead = false })
}

func BenchmarkLoopEveryCycle(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.DisableSkipAhead = true })
}

// --- Multi-channel scaling (the memsys layer) ---

// benchChannels runs the standard attack mix on an N-channel memory
// system: lines interleave MOP-blocks across channels, each channel has
// its own controller, device and mitigation instance, and BreakHammer
// attributes activations across all of them.
func benchChannels(b *testing.B, channels int) {
	benchRunWS(b, func(c *sim.Config) { c.Channels = channels })
}

func BenchmarkChannels1(b *testing.B) { benchChannels(b, 1) }
func BenchmarkChannels2(b *testing.B) { benchChannels(b, 2) }
func BenchmarkChannels4(b *testing.B) { benchChannels(b, 4) }
func BenchmarkChannels8(b *testing.B) { benchChannels(b, 8) }
