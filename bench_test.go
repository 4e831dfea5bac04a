// Ablation benchmarks for the design choices called out in DESIGN.md
// (FR-FCFS cap, throttling window, TH_outlier, issue width, throttle
// placement, address map) — the only runnable form of those
// sensitivities, none of which has a CLI flag. Each runs one smoke-scale
// attack simulation and reports benign weighted speedup and the
// preventive-action count as custom metrics:
//
//	go test -run xxx -bench Ablation -benchtime 1x .
//
// Regenerating an experiment is `bhsweep -quick -figs <name>`; driver,
// channel-count and BreakHammer per-activation timings are the repository
// benchmark's (bench/).
package breakhammer_test

import (
	"testing"

	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

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

// Ablation: throttle placement — §4.3's MSHR quota vs §4.4's LSU-level
// unresolved-load limit.
func BenchmarkAblationThrottleAtMSHR(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.ThrottleAt = "mshr" })
}

func BenchmarkAblationThrottleAtLSU(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.ThrottleAt = "lsu" })
}

// Ablation: address mapping (Table 1's MOP vs row-interleaved baseline).
func BenchmarkAblationAddressMapMOP(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.AddressMap = "mop" })
}

func BenchmarkAblationAddressMapRowInterleaved(b *testing.B) {
	benchRunWS(b, func(c *sim.Config) { c.AddressMap = "rowint" })
}
