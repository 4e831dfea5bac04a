package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestSkipAheadMatchesEveryCycle verifies the central claim of the
// event-batched driver: skipping provably idle cycles changes nothing.
// Config.DisableSkipAhead (lockstep: every core ticks on every cycle) is
// the differential oracle; the JSON of the complete Result must match,
// counters included — the LLC counts a stalled core's refusals once per
// episode, not once per ticked retry. The sampled row checks skip-ahead
// inside warm-up and detail spans; the
// 4-channel row has its fills, and so the completions that end a core's
// window-blocked sleep, replayed from the channels' event buffers.
func TestSkipAheadMatchesEveryCycle(t *testing.T) {
	for _, tc := range []struct {
		mech     string
		mix      string
		bh       bool
		lsu      bool
		sampled  bool
		channels int
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
	} {
		tc := tc
		name := tc.mech + "/" + tc.mix
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
			if tc.sampled {
				cfg = sampledTestConfig(1)
			}
			cfg.Mechanism = tc.mech
			cfg.NRH = 256
			cfg.BreakHammer = tc.bh
			cfg.Channels = tc.channels
			if tc.lsu {
				cfg.ThrottleAt = "lsu"
			}
			mix := mustMix(t, tc.mix)
			run := func(lockstep bool) []byte {
				cfg.DisableSkipAhead = lockstep
				sys, err := NewSystem(cfg, mix)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(sys.Run())
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			if skip, every := run(false), run(true); !bytes.Equal(skip, every) {
				t.Errorf("skip-ahead diverged from lockstep:\nskip:     %.400s\nlockstep: %.400s", skip, every)
			}
		})
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
