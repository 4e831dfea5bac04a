package sim

import (
	"testing"

	"breakhammer/internal/workload"
)

func TestEmptyMixRejected(t *testing.T) {
	if _, err := NewSystem(tinyConfig(), workload.Mix{Name: "empty"}); err == nil {
		t.Error("empty mix accepted")
	}
}

func TestMaxCyclesCapsRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxCycles = 50_000
	cfg.TargetInsts = 1 << 40 // unreachable
	sys, err := NewSystem(cfg, mustMix(t, "HHHH"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.Cycles != 50_000 {
		t.Errorf("Cycles = %d, want MaxCycles cap 50000", res.Cycles)
	}
	if res.BenignFinished {
		t.Error("BenignFinished must be false at the cap")
	}
}

func TestPaperWindowDefault(t *testing.T) {
	cfg := DefaultConfig()
	want := cfg.Timing.NsToCycles(64e6)
	if cfg.bhWindow() != want {
		t.Errorf("default window = %d cycles, want 64 ms = %d", cfg.bhWindow(), want)
	}
	cfg.BHWindow = 0
	if cfg.bhWindow() != want {
		t.Errorf("zero window must fall back to 64 ms")
	}
}

func TestPRACBackoffReachesController(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "prac"
	cfg.NRH = 128
	sys, err := NewSystem(cfg, mustMix(t, "LLLA"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.MC.BackoffCycles == 0 {
		t.Error("PRAC alerts never paused the channel")
	}
	if res.MC.RFMs == 0 {
		t.Error("PRAC back-off issued no RFM commands")
	}
}

func TestAQUAMigrationsReachDevice(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "aqua"
	cfg.NRH = 128
	sys, err := NewSystem(cfg, mustMix(t, "LLLA"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.MC.Migrations == 0 {
		t.Error("AQUA performed no migrations under attack")
	}
}

func TestHydraAuxTrafficAppears(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "hydra"
	cfg.NRH = 128
	sys, err := NewSystem(cfg, mustMix(t, "HLLA"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.MC.AuxAccesses == 0 {
		t.Error("Hydra generated no row-count-table traffic")
	}
}

func TestREGAWithBreakHammerUsesThreadAttribution(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mechanism = "rega"
	cfg.NRH = 128
	cfg.BreakHammer = true
	res, err := RunMix(cfg, mustMix(t, "LLLA"))
	if err != nil {
		t.Fatal(err)
	}
	if res.BH.ActionsObserved == 0 {
		t.Error("REGA actions not observed by BreakHammer")
	}
	if res.BH.SuspectEvents[3] == 0 {
		t.Error("REGA+BH did not identify the attacker")
	}
}

func TestEveryMechanismDetectsAttacker(t *testing.T) {
	// The paper's claim "BreakHammer detects and throttles the attacker in
	// all 90 workloads" — here across all eight mechanisms on one mix.
	for _, mech := range []string{"para", "graphene", "hydra", "twice", "aqua", "rega", "rfm", "prac"} {
		mech := mech
		t.Run(mech, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			cfg.Mechanism = mech
			cfg.NRH = 128
			cfg.BreakHammer = true
			res, err := RunMix(cfg, mustMix(t, "MLLA"))
			if err != nil {
				t.Fatal(err)
			}
			if res.BH.SuspectEvents[3] == 0 {
				t.Errorf("%s+BH never identified the attacker", mech)
			}
		})
	}
}

func TestWritebackTrafficDoesNotBreakAttribution(t *testing.T) {
	// Heavy write workloads produce writeback ACTs with thread=-1; scores
	// must stay attributable and nothing panics.
	cfg := tinyConfig()
	cfg.Mechanism = "graphene"
	cfg.NRH = 256
	cfg.BreakHammer = true
	m := mustMix(t, "HHHH")
	for i := range m.Specs {
		m.Specs[i].WriteFrac = 0.6
	}
	res, err := RunMix(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.MC.WritesDone == 0 {
		t.Error("no writebacks generated despite write-heavy mix")
	}
}

func TestLatencyHistogramsOnlyCountReads(t *testing.T) {
	cfg := tinyConfig()
	sys, err := NewSystem(cfg, mustMix(t, "MLLL"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	var totalLat int64
	for tid, h := range res.Latency {
		totalLat += h.Count()
		_ = tid
	}
	var totalReads int64
	for _, n := range res.MC.ReadsDone {
		totalReads += n
	}
	if totalLat != totalReads {
		t.Errorf("latency samples = %d, reads completed = %d", totalLat, totalReads)
	}
}

func TestRefreshEnergyAccumulates(t *testing.T) {
	cfg := tinyConfig()
	sys, err := NewSystem(cfg, mustMix(t, "LLLL"))
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	if res.MC.Refreshes == 0 {
		t.Skip("run too short for refresh")
	}
	if res.EnergyNJ <= 0 {
		t.Error("energy must include refresh contribution")
	}
}

func TestSeedChangesWorkloadNotStructure(t *testing.T) {
	cfg := tinyConfig()
	a, err := RunMix(cfg, mustMix(t, "MLLL"))
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := workload.ParseMix("MLLL", 99)
	b, err := RunMix(cfg, m2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles && a.MC.TotalACTs == b.MC.TotalACTs {
		t.Error("different seeds produced identical simulations")
	}
}

func TestLSUThrottlingAlsoContainsAttacker(t *testing.T) {
	// §4.4: throttling unresolved loads at the core must work like MSHR
	// throttling for systems without cache-miss buffers.
	cfg := tinyConfig()
	cfg.Mechanism = "graphene"
	cfg.NRH = 128
	base, err := RunMix(cfg, mustMix(t, "MLLA"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.BreakHammer = true
	cfg.ThrottleAt = "lsu"
	lsu, err := RunMix(cfg, mustMix(t, "MLLA"))
	if err != nil {
		t.Fatal(err)
	}
	if lsu.BH.SuspectEvents[3] == 0 {
		t.Fatal("attacker not detected under LSU throttling")
	}
	if lsu.WS <= base.WS {
		t.Errorf("LSU throttling did not improve WS: %g -> %g", base.WS, lsu.WS)
	}
	// The MSHR quota path must be inactive: no quota blocks at the cache.
	for tid, n := range lsu.CacheStats.QuotaBlocks {
		if n != 0 {
			t.Errorf("cache quota blocks on thread %d under LSU mode", tid)
		}
	}
}

func TestThrottleAtValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.ThrottleAt = "memorycontroller"
	if err := cfg.Validate(); err == nil {
		t.Error("invalid ThrottleAt accepted")
	}
}

func TestRowPressHardeningLowersTriggerThreshold(t *testing.T) {
	// §2.2: configuring the trigger algorithm against N_RH/factor makes
	// it fire more often for the same access stream.
	mix := mustMix(t, "MLLA")
	base := tinyConfig()
	base.Mechanism = "graphene"
	base.NRH = 512
	plain, err := RunMix(base, mix)
	if err != nil {
		t.Fatal(err)
	}
	hardened := base
	hardened.RowPressFactor = 4
	rp, err := RunMix(hardened, mix)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Actions <= plain.Actions {
		t.Errorf("RowPress hardening did not increase preventive actions: %d vs %d",
			rp.Actions, plain.Actions)
	}
}

func TestRowPressFactorValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.RowPressFactor = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative RowPressFactor accepted")
	}
	cfg.RowPressFactor = 0
	if cfg.effectiveNRH() != cfg.NRH {
		t.Error("zero factor must mean no hardening")
	}
	cfg.RowPressFactor = 1000000
	if cfg.effectiveNRH() != 1 {
		t.Errorf("effectiveNRH floor = %d, want 1", cfg.effectiveNRH())
	}
}

// TestRowCensusCountsEveryChannel: the census is off unless asked for,
// and on it counts the rows of every channel. Table 3 once hooked channel
// 0 only, so under four channels it saw a quarter of the attacker's
// aggressor rows.
func TestRowCensusCountsEveryChannel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Channels = 4
	cfg.MaxCycles = 1_000_000
	mix := workload.Mix{Name: "atk", Specs: []workload.Spec{workload.AttackerSpec(0, 104)}}
	run := func(cfg Config) (Result, map[[3]int]int64) {
		sys, err := NewSystem(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[[3]int]int64{}
		sys.Memory().AddActivateHook(func(channel, bank, row, thread int, now int64) {
			rows[[3]int{channel, bank, row}]++
		})
		return sys.Run(), rows
	}
	if res, _ := run(cfg); res.RowCensus != nil {
		t.Fatalf("census reported without Config.RowCensus: %+v", res.RowCensus)
	}
	cfg.RowCensus = true
	res, rows := run(cfg)
	var all, channel0 int
	for key, n := range rows {
		if n >= 64 {
			all++
			if key[0] == 0 {
				channel0++
			}
		}
	}
	if res.RowCensus == nil || res.RowCensus.Over64 != all || res.RowCensus.Over512 > res.RowCensus.Over128 || res.RowCensus.Over128 > all {
		t.Fatalf("census %+v, an independent count over every channel finds %d rows with 64+ ACTs", res.RowCensus, all)
	}
	if channel0 == 0 || channel0 >= all {
		t.Fatalf("rows with 64+ ACTs: %d on channel 0 of %d overall; the test needs the attacker spread over channels", channel0, all)
	}
}
