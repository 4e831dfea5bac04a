package sim

import (
	"reflect"
	"slices"
	"testing"

	"breakhammer/internal/mitigation"
	"breakhammer/internal/workload"
)

// tinyConfig keeps integration tests fast while leaving enough simulated
// time for attack dynamics (mitigation triggers, suspect detection) to
// develop: ~1M+ cycles per run, several throttling windows.
func tinyConfig() Config {
	c := FastConfig()
	c.TargetInsts = 150_000
	c.BHWindow = 250_000
	c.MaxCycles = 30_000_000
	return c
}

func mustMix(t *testing.T, letters string) workload.Mix {
	t.Helper()
	m, err := workload.ParseMix(letters, 17)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := tinyConfig()
	c.NRH = 0
	if err := c.Validate(); err == nil {
		t.Error("NRH=0 accepted")
	}
	c = tinyConfig()
	c.Mechanism = "blockhammer"
	c.BreakHammer = true
	if err := c.Validate(); err == nil {
		t.Error("BlockHammer+BreakHammer pairing accepted")
	}
}

// TestValidateRejectsBadMachine: LLC, controller and core shapes the
// components would take silently — a third of the LLC's sets unreachable
// behind the index mask, or a run that never moves an instruction and spins
// to MaxCycles (1<<62 under DefaultConfig) — are configuration errors.
func TestValidateRejectsBadMachine(t *testing.T) {
	for _, c := range []Config{DefaultConfig(), FastConfig(), tinyConfig()} {
		if err := c.Validate(); err != nil {
			t.Fatalf("a stock configuration is rejected: %v", err)
		}
	}
	for name, breakIt := range map[string]func(*Config){
		"LLC sets not a power of two": func(c *Config) { c.Cache.SizeBytes = 6 << 20 },
		"LLC smaller than one set":    func(c *Config) { c.Cache.SizeBytes = 64 },
		"zero ways":                   func(c *Config) { c.Cache.Ways = 0 },
		"negative line size":          func(c *Config) { c.Cache.LineBytes = -64 },
		"zero MSHRs":                  func(c *Config) { c.Cache.MSHRs = 0 },
		"negative hit latency":        func(c *Config) { c.Cache.HitLatency = -1 },
		"zero read queue":             func(c *Config) { c.MC.ReadQueue = 0 },
		"zero write queue":            func(c *Config) { c.MC.WriteQueue = 0 },
		"WriteLo = WriteHi":           func(c *Config) { c.MC.WriteLo = c.MC.WriteHi },
		"WriteHi > WriteQueue":        func(c *Config) { c.MC.WriteHi = c.MC.WriteQueue + 1 },
		"negative cap":                func(c *Config) { c.MC.Cap = -1 },
		"zero window":                 func(c *Config) { c.Core.WindowSize = 0 },
		"zero issue width":            func(c *Config) { c.Core.IssueWidth = 0 },
		"zero MaxCycles":              func(c *Config) { c.MaxCycles = 0 },
		"sampled blockhammer": func(c *Config) {
			c.Mechanism = "blockhammer"
			c.Sampling = sampledTestConfig(1).Sampling
		},
	} {
		c := tinyConfig()
		breakIt(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := NewSystem(c, mustMix(t, "HMLL")); err == nil {
			t.Errorf("%s: NewSystem built it", name)
		}
	}
}

func TestBenignMixCompletesNoDefense(t *testing.T) {
	cfg := tinyConfig()
	sys, err := NewSystem(cfg, mustMix(t, "HMLL"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if !res.BenignFinished {
		t.Fatalf("benign cores unfinished after %d cycles", res.Cycles)
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 {
			t.Errorf("IPC[%d] = %g, want > 0", i, ipc)
		}
	}
	// High-intensity cores must show higher RBMPKI than low-intensity ones.
	if res.RBMPKI[0] <= res.RBMPKI[3] {
		t.Errorf("RBMPKI H=%g should exceed L=%g", res.RBMPKI[0], res.RBMPKI[3])
	}
	if res.EnergyNJ <= 0 {
		t.Error("no energy accounted")
	}
	if res.Latency[0].Count() == 0 {
		t.Error("no latencies recorded for core 0")
	}
}

func TestAttackerGeneratesActivationStorm(t *testing.T) {
	cfg := tinyConfig()
	sys, err := NewSystem(cfg, mustMix(t, "LLLA"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	acts := res.MC.DemandACTs
	// The attacker (thread 3) must out-activate every benign thread by a
	// wide margin: its accesses all miss, all conflict, across 16 banks.
	for i := 0; i < 3; i++ {
		if acts[3] < 4*acts[i] {
			t.Errorf("attacker ACTs=%d not dominating benign thread %d (%d)", acts[3], i, acts[i])
		}
	}
}

func TestMechanismTriggersUnderAttack(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "graphene"
	cfg.NRH = 256
	sys, err := NewSystem(cfg, mustMix(t, "LLLA"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Actions == 0 {
		t.Error("graphene performed no preventive actions under attack")
	}
	if res.MC.VRRs == 0 {
		t.Error("no victim-row refreshes issued")
	}
}

func TestBreakHammerDetectsAndThrottlesAttacker(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "graphene"
	cfg.NRH = 256
	cfg.BreakHammer = true
	sys, err := NewSystem(cfg, mustMix(t, "LLLA"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.BH == nil {
		t.Fatal("BreakHammer stats missing")
	}
	if res.BH.SuspectEvents[3] == 0 {
		t.Error("attacker (thread 3) never identified as suspect")
	}
	for i := 0; i < 3; i++ {
		if res.BH.SuspectEvents[i] != 0 {
			t.Errorf("benign thread %d wrongly marked suspect", i)
		}
	}
	if res.CacheStats.QuotaBlocks[3] == 0 {
		t.Error("attacker was never quota-blocked at the MSHRs")
	}
}

func TestBreakHammerReducesPreventiveActions(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "graphene"
	cfg.NRH = 128
	mix := mustMix(t, "MLLA")

	base, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BreakHammer = true
	bh, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if bh.Actions >= base.Actions {
		t.Errorf("BreakHammer did not reduce preventive actions: %d -> %d",
			base.Actions, bh.Actions)
	}
	if bh.WS <= base.WS {
		t.Errorf("BreakHammer did not improve benign weighted speedup: %g -> %g",
			base.WS, bh.WS)
	}
}

func TestBreakHammerHarmlessWithoutAttacker(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "graphene"
	cfg.NRH = 1024
	mix := mustMix(t, "MMLL")

	base, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BreakHammer = true
	bh, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	ratio := bh.WS / base.WS
	if ratio < 0.93 {
		t.Errorf("BreakHammer cost %.1f%% benign WS with no attacker", (1-ratio)*100)
	}
}

func TestREGAAppliesTimingPenalty(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "rega"
	cfg.NRH = 64
	sys, err := NewSystem(cfg, mustMix(t, "HLLL"))
	if err != nil {
		t.Fatal(err)
	}
	wantRAS := tinyConfig().Timing.RAS + 42 // V=8 at NRH=64 -> +6*(8-1)
	if got := sys.Controller().Device().Timing().RAS; got != wantRAS {
		t.Errorf("REGA tRAS = %d, want %d", got, wantRAS)
	}
}

func TestBlockHammerRunsStandalone(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "blockhammer"
	cfg.NRH = 128 // low threshold: the attacker's rows blacklist quickly
	sys, err := NewSystem(cfg, mustMix(t, "LLLA"))
	if err != nil {
		t.Fatal(err)
	}
	// The installed gate, watched: did it ever hold the attacker (thread
	// 3) past the cycle it was asked at?
	bhm := sys.mechs[0].(*mitigation.BlockHammer)
	held := false
	sys.mem.Channel(0).SetActGate(func(bank, row, thread int, now int64) int64 {
		at := bhm.ActAllowedAt(bank, row, thread, now)
		held = held || thread == 3 && at > now
		return at
	})
	res := sys.Run()
	if !res.BenignFinished {
		t.Error("benign cores did not finish under BlockHammer")
	}
	if !held {
		t.Error("BlockHammer never gated the attacker's activations")
	}
}

func TestAloneIPCCached(t *testing.T) {
	cfg := tinyConfig()
	spec := workload.ClassSpec(workload.Low, 0, 5)
	a, err := AloneIPC(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AloneIPC(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("alone IPC not deterministic/cached: %g vs %g", a, b)
	}
	if a <= 0 {
		t.Errorf("alone IPC = %g", a)
	}
}

// perturb changes a settable value in place (structs: their first field).
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		perturb(t, v.Field(0))
	default:
		t.Fatalf("perturb: unhandled kind %v", v.Kind())
	}
}

// TestAloneConfigFields walks sim.Config by reflection: changing a field
// either reaches the baseline's configuration unchanged (a baseline run
// under a different system is a different baseline) or the field is named
// in aloneNormalised and comes out at DefaultConfig's value. A baseline
// configuration is valid whatever the normalised fields held.
func TestAloneConfigFields(t *testing.T) {
	def := reflect.ValueOf(DefaultConfig())
	typ := def.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := FastConfig()
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		perturb(t, f)
		in := f.Interface()
		out := reflect.ValueOf(aloneConfig(cfg)).Field(i).Interface()
		if slices.Contains(aloneNormalised, name) {
			if want := def.Field(i).Interface(); !reflect.DeepEqual(out, want) {
				t.Errorf("%s is normalised but comes out %+v, DefaultConfig has %+v", name, out, want)
			}
		} else if !reflect.DeepEqual(out, in) {
			t.Errorf("%s is neither carried through (%+v -> %+v) nor named in aloneNormalised", name, in, out)
		}
	}

	junk := FastConfig()
	junk.Mechanism, junk.BreakHammer, junk.ThrottleAt = "blockhammer", true, "nowhere"
	junk.NRH, junk.BlastRadius, junk.RowPressFactor = 0, 0, -1
	junk.Sampling.Enabled, junk.Sampling.FFCycles = true, -1
	if err := junk.Validate(); err == nil {
		t.Fatal("the junk configuration is meant to be invalid")
	}
	if err := aloneConfig(junk).Validate(); err != nil {
		t.Errorf("baseline configuration of an invalid mechanism setup does not validate: %v", err)
	}
}

func TestRunMixesParallel(t *testing.T) {
	cfg := tinyConfig()
	mixes := []workload.Mix{mustMix(t, "LLLL"), mustMix(t, "MLLL")}
	rs, err := RunMixes(cfg, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results = %d, want 2", len(rs))
	}
	for i, r := range rs {
		if r.WS <= 0 {
			t.Errorf("mix %d WS = %g", i, r.WS)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "para"
	cfg.NRH = 512
	mix := mustMix(t, "MLLA")
	a, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMix(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.WS != b.WS || a.Actions != b.Actions {
		t.Errorf("simulation not deterministic: (%d,%g,%d) vs (%d,%g,%d)",
			a.Cycles, a.WS, a.Actions, b.Cycles, b.WS, b.Actions)
	}
}
