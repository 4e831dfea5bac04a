package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"breakhammer/internal/scenario"
	"breakhammer/internal/workload"
	"breakhammer/internal/workload/sourcetest"
)

// runOnce simulates mixName under cfg and returns the full Result
// serialized to JSON — the byte-level identity the determinism contract
// is stated in (Stats, histograms, per-channel counters, everything).
func runOnce(t *testing.T, cfg Config, mixName string) []byte {
	t.Helper()
	mix, err := workload.ParseMix(mixName, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestParallelChannelsDeterministic pins the multi-channel half of the
// skip-ahead claim: channels that tick one after another in one cycle
// give one result whether the driver skips idle cycles or ticks every
// one, at 1, 2, 4 and 8 channels and for an attack and a benign mix. The
// comparison is the JSON of the complete Result — merged and per-channel
// controller stats, cache stats, BreakHammer stats, latency histograms,
// energy — so a channel whose wake bound let the driver jump past one of
// its events, or a channel order that depended on which cycles ran,
// would surface.
func TestParallelChannelsDeterministic(t *testing.T) {
	for _, channels := range []int{1, 2, 4, 8} {
		for _, mixName := range []string{"HLMA", "HML"} {
			t.Run(fmt.Sprintf("channels=%d/mix=%s", channels, mixName), func(t *testing.T) {
				cfg := parallelTestConfig(channels)
				skip := runOnce(t, cfg, mixName)
				cfg.DisableSkipAhead = true
				lockstep := runOnce(t, cfg, mixName)
				if !bytes.Equal(skip, lockstep) {
					t.Fatalf("skip-ahead diverged from lockstep (%d channels, mix %s):\nskip:     %.400s\nlockstep: %.400s",
						channels, mixName, skip, lockstep)
				}
			})
		}
	}
}

// TestSkipAheadMatchesEveryCycle verifies the central claim of the
// event-batched driver: skipping provably idle cycles changes nothing.
// Config.DisableSkipAhead (lockstep: every core ticks on every cycle) is
// the differential oracle; the JSON of the complete Result must match,
// counters included — the LLC counts a stalled core's refusals once per
// episode, not once per ticked retry. The sampled row checks skip-ahead
// inside warm-up and detail spans; the 4-channel row has the
// completions that wake a sleeping core delivered by four channels in
// one cycle. The "queue" and "benign-quota" rows reach the refusal kinds
// the others barely see, each waking a core by its own clause of
// cache.LLC.RefusalLifted: "queue" shrinks the controller's queues until
// every thread meets a full read queue, "benign-quota" makes BreakHammer
// suspect (and throttle) a benign thread too. "half-epoch" runs
// BlockHammer at bhsim's default scale past its first epoch swap, where
// the AttackThrottler's quotas rise with an activation rather than an
// MSHR release.
func TestSkipAheadMatchesEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		mech     string
		mix      string
		bh       bool
		lsu      bool
		sampled  bool
		channels int
		variant  string // "queue", "benign-quota" or "half-epoch"; see above
	}{
		{mech: "none", mix: "HHMM"},
		{mech: "graphene", mix: "MLLA", bh: true},
		{mech: "rfm", mix: "LLLA", bh: true},
		{mech: "prac", mix: "MLLA"},
		{mech: "graphene", mix: "MLLA", bh: true, lsu: true},
		{mech: "blockhammer", mix: "MLLA"},
		{mech: "graphene", mix: "MLLA", bh: true, sampled: true},
		{mech: "prac", mix: "MLLA", channels: 4},
		{mech: "graphene", mix: "HHMA", bh: true},
		{mech: "graphene", mix: "HHMA", bh: true, variant: "queue"},
		{mech: "graphene", mix: "HHMM", bh: true, variant: "benign-quota"},
		{mech: "blockhammer", mix: "HHHA", variant: "half-epoch"},
	} {
		tc := tc
		name := tc.mech + "/" + tc.mix
		if tc.variant != "" {
			name += "/" + tc.variant
		}
		if tc.lsu {
			name += "/lsu"
		}
		if tc.sampled {
			name += "/sampled"
		}
		if tc.channels > 1 {
			name += fmt.Sprintf("/%dch", tc.channels)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			switch {
			case tc.sampled:
				cfg = sampledTestConfig(1)
			case tc.variant == "half-epoch":
				cfg = FastConfig()
			}
			cfg.Mechanism = tc.mech
			cfg.NRH = 256
			cfg.BreakHammer = tc.bh
			cfg.Channels = tc.channels
			if tc.lsu {
				cfg.ThrottleAt = "lsu"
			}
			switch tc.variant {
			case "queue":
				cfg.MC.ReadQueue, cfg.MC.WriteQueue, cfg.MC.WriteHi, cfg.MC.WriteLo = 8, 8, 6, 2
			case "benign-quota":
				cfg.BHThreat, cfg.BHOutlier = 0.5, 0.01
			}
			mix := mustMix(t, tc.mix)
			var res Result
			run := func(lockstep bool) []byte {
				cfg.DisableSkipAhead = lockstep
				sys, err := NewSystem(cfg, mix)
				if err != nil {
					t.Fatal(err)
				}
				res = sys.Run()
				raw, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			if skip, every := run(false), run(true); !bytes.Equal(skip, every) {
				t.Errorf("skip-ahead diverged from lockstep:\nskip:     %.400s\nlockstep: %.400s", skip, every)
			}
			cs := res.CacheStats
			switch tc.variant {
			case "queue":
				for thread, n := range cs.QueueBlocks {
					if n == 0 {
						t.Errorf("thread %d never met a full read queue: QueueBlocks %v", thread, cs.QueueBlocks)
					}
				}
			case "benign-quota":
				if benign := cs.QuotaBlocks[0] + cs.QuotaBlocks[1] + cs.QuotaBlocks[2] + cs.QuotaBlocks[3]; benign == 0 {
					t.Errorf("no benign thread met its quota: QuotaBlocks %v", cs.QuotaBlocks)
				}
			case "half-epoch":
				if swap := cfg.Timing.REFW / 2; res.Cycles <= swap {
					t.Errorf("the run ends at cycle %d, before BlockHammer's first epoch swap at %d", res.Cycles, swap)
				}
			}
		})
	}
}

// TestThreadSlicesAreDisjoint pins what runDetailed's per-core sleep (old
// rule and new) rests on: threads own disjoint address slices, so no
// thread's access can turn another thread's refused line into a hit or a
// merge without a wake — if two threads shared a line, one's MSHR
// allocation could end the other's refusal unseen. The slices are
// disjoint by construction; every source kind — each mix letter, the
// rotating attacker, a trace replay cursor and every scenario strategy —
// must keep 100 K records inside its thread's slice at every thread index
// an 8-core mix uses.
func TestThreadSlicesAreDisjoint(t *testing.T) {
	const threads, records = 8, 100_000
	for th := 0; th < threads; th++ {
		if end, next := workload.BaseLine(th)+workload.ThreadSpanLines, workload.BaseLine(th+1); end > next {
			t.Fatalf("thread %d's slice ends at %#x, past thread %d's base %#x", th, end, th+1, next)
		}
	}
	mix, err := workload.ParseMix("HMLA", 3)
	if err != nil {
		t.Fatal(err)
	}
	specs := append(mix.Specs,
		workload.RotatingAttackerSpec(0, 2, 500, 5),
		workload.RotatingAttackerSpec(1, 2, 500, 5))
	path := filepath.Join(t.TempDir(), "slices.trace")
	// Addresses far outside any one slice: the cursor must confine them.
	data := "3 0x40 R\n0 0xdeadbeef000 W\n12 0x7fffffffffff R\n1 0x0 R\n7 0x123456789a W\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	specs = append(specs, workload.TraceSpec(path, 0))
	for _, name := range scenario.Strategies() {
		spec, err := scenario.StrategySpec(name, 0, 128, 9)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, spec := range specs {
		for th := 0; th < threads; th++ {
			sourcetest.Confined(t, spec, th, records)
		}
	}
}

// TestMultiChannelEndToEnd runs the same attack mix on 2- and 4-channel
// systems: the run must complete, the merged stats must equal the
// channel-wise sums, and BreakHammer must still attribute the attack to
// the right thread even though its activations spread over all channels
// (cross-channel attribution).
func TestMultiChannelEndToEnd(t *testing.T) {
	for _, channels := range []int{2, 4} {
		channels := channels
		t.Run(string(rune('0'+channels))+"ch", func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			cfg.Channels = channels
			cfg.Mechanism = "graphene"
			cfg.NRH = 128
			cfg.BreakHammer = true
			res, err := RunMix(cfg, mustMix(t, "MLLA"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.BenignFinished {
				t.Error("benign cores unfinished")
			}
			if len(res.MCChannels) != channels {
				t.Fatalf("MCChannels has %d entries, want %d", len(res.MCChannels), channels)
			}
			var acts, demand int64
			activeChannels := 0
			for _, chStats := range res.MCChannels {
				acts += chStats.TotalACTs
				demand += chStats.DemandACTs[3]
				if chStats.TotalACTs > 0 {
					activeChannels++
				}
			}
			if acts != res.MC.TotalACTs {
				t.Errorf("channel ACT sum %d != merged %d", acts, res.MC.TotalACTs)
			}
			if demand != res.MC.DemandACTs[3] {
				t.Errorf("attacker demand-ACT sum %d != merged %d", demand, res.MC.DemandACTs[3])
			}
			if activeChannels != channels {
				t.Errorf("only %d of %d channels saw activations", activeChannels, channels)
			}
			if res.BH.SuspectEvents[3] == 0 {
				t.Error("attacker spread across channels was not identified")
			}
			for tid := 0; tid < 3; tid++ {
				if res.BH.SuspectEvents[tid] != 0 {
					t.Errorf("benign thread %d wrongly marked suspect", tid)
				}
			}
		})
	}
}

// TestSingleChannelConfigIsDefault checks the zero value and the
// validation rule for the new Channels knob.
func TestSingleChannelConfigIsDefault(t *testing.T) {
	cfg := tinyConfig()
	if cfg.channels() != 1 {
		t.Errorf("zero-value Channels must mean 1, got %d", cfg.channels())
	}
	cfg.Channels = 3
	if err := cfg.Validate(); err == nil {
		t.Error("Channels=3 (not a power of two) accepted")
	}
	cfg.Channels = -2
	if err := cfg.Validate(); err == nil {
		t.Error("negative Channels accepted")
	}
}

// TestMultiChannelMechanismPerChannel verifies every channel got its own
// mitigation instance and preventive actions flow on each of them.
func TestMultiChannelMechanismPerChannel(t *testing.T) {
	cfg := tinyConfig()
	cfg.Channels = 2
	cfg.Mechanism = "graphene"
	cfg.NRH = 128
	sys, err := NewSystem(cfg, mustMix(t, "MLLA"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Mechanisms()) != 2 {
		t.Fatalf("%d mechanism instances, want 2", len(sys.Mechanisms()))
	}
	res := sys.Run()
	for ch, chStats := range res.MCChannels {
		if chStats.VRRs == 0 {
			t.Errorf("channel %d issued no victim-row refreshes under attack", ch)
		}
	}
}
