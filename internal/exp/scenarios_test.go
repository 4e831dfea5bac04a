package exp

import (
	"strings"
	"testing"

	"breakhammer/internal/results"
	"breakhammer/internal/scenario"
)

// scenarioTestOptions shrinks the adversarial grid to a test budget: two
// adaptive strategies against two defenses at one threshold.
func scenarioTestOptions() Options {
	o := QuickOptions()
	o.Base.TargetInsts = 40_000
	o.Base.BHWindow = 200_000
	o.NRHs = []int{256}
	o.Strategies = []string{scenario.StrategyProbe, scenario.StrategyDecoy}
	o.Defenses = []scenario.Defense{
		{Mechanism: "graphene", BH: true},
		{Mechanism: "none"},
	}
	return o
}

// TestScenariosWarmRerunSimulatesNothing is the scenario-grid acceptance
// criterion: a repeated frontier build against a persistent cache
// directory performs zero simulations and reproduces the table
// byte-identically.
func TestScenariosWarmRerunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := scenarioTestOptions()

	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	first, err := r1.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Executed() == 0 {
		t.Fatal("cold scenario grid executed no simulations")
	}

	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWithStore(opts, store2)
	second, err := r2.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Executed(); got != 0 {
		t.Errorf("warm scenario grid executed %d simulations, want 0", got)
	}
	if st := store2.Stats(); st.Misses != 0 {
		t.Errorf("warm scenario grid missed the cache %d times, want 0", st.Misses)
	}
	if first.CSV() != second.CSV() {
		t.Errorf("warm frontier table differs from the cold one:\ncold:\n%s\nwarm:\n%s",
			first.CSV(), second.CSV())
	}
}

// TestScenariosSerialParallelIdentical: the frontier table of a
// 2-channel grid is byte-identical whether its points are simulated one
// at a time as the table asks for them, or all up front by Prefetch,
// four at once — the scenario feedback loop must not leak scheduling
// nondeterminism between concurrently simulated points.
func TestScenariosSerialParallelIdentical(t *testing.T) {
	opts := scenarioTestOptions()
	opts.Base.Channels = 2

	storeS, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewRunnerWithStore(opts, storeS).Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	storeP, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rp := NewRunnerWithStore(opts, storeP)
	rp.SetJobs(4)
	if err := rp.Prefetch(rp.PointsFor([]string{"scenarios"})); err != nil {
		t.Fatal(err)
	}
	executed := rp.Executed()
	parallel, err := rp.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	if executed < 2 || rp.Executed() != executed {
		t.Fatalf("Prefetch simulated %d point(s) and the table %d more; want several, then none",
			executed, rp.Executed()-executed)
	}
	if serial.CSV() != parallel.CSV() {
		t.Errorf("frontier table diverges between serial and concurrent points:\nserial:\n%s\nparallel:\n%s",
			serial.CSV(), parallel.CSV())
	}
}

// TestScenarioPointsFor: the "scenarios" selector enumerates the full
// strategy x defense grid, pinned to the lowest configured threshold.
func TestScenarioPointsFor(t *testing.T) {
	opts := scenarioTestOptions()
	opts.NRHs = []int{1024, 256}
	r := NewRunner(opts)
	points := r.PointsFor([]string{"scenarios"})
	want := len(opts.Strategies) * len(opts.Defenses)
	if len(points) != want {
		t.Fatalf("scenarios selector yields %d points, want %d", len(points), want)
	}
	for _, p := range points {
		if p.Scenario == "" {
			t.Errorf("point %s has no scenario", p)
		}
		if p.NRH != 256 {
			t.Errorf("point %s runs at NRH %d, want the minimum 256", p, p.NRH)
		}
	}
}

// TestOptionSpecScenarioValidation: strategy and defense overrides fail
// loudly with errors naming the offending token.
func TestOptionSpecScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sp   OptionSpec
		want string // "" = must resolve
	}{
		{"valid", OptionSpec{Strategies: "probe, decoy", Defenses: "graphene+bh, none"}, ""},
		{"unknown strategy", OptionSpec{Strategies: "probe,warble"}, "warble"},
		{"unknown defense mechanism", OptionSpec{Defenses: "grapheen+bh"}, "grapheen"},
		{"duplicate defense", OptionSpec{Defenses: "graphene+bh,bh+graphene"}, "duplicate"},
		{"unstackable defense", OptionSpec{Defenses: "none+graphene"}, "stacked"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, err := c.sp.Resolve()
			if c.want == "" {
				if err != nil {
					t.Fatalf("Resolve() errored: %v", err)
				}
				if len(o.Strategies) != 2 || o.Strategies[0] != "probe" {
					t.Errorf("strategies = %v, want [probe decoy]", o.Strategies)
				}
				if len(o.Defenses) != 2 || o.Defenses[0].String() != "graphene+bh" {
					t.Errorf("defenses = %v, want [graphene+bh none]", o.Defenses)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Resolve() = %v, want error containing %q", err, c.want)
			}
		})
	}
}
