package sim

import (
	"encoding/json"
	"fmt"
	"testing"

	"breakhammer/internal/workload"
)

// parallelTestConfig returns a small multi-channel configuration that
// still exercises the full callback surface: a trigger-based mechanism
// (Graphene) paired with BreakHammer, so activate hooks, observer
// signals, LLC fills and latency reports all cross the channel boundary.
func parallelTestConfig(channels int) Config {
	cfg := FastConfig()
	cfg.TargetInsts = 40_000
	cfg.BHWindow = 200_000
	cfg.Channels = channels
	cfg.Mechanism = "graphene"
	cfg.NRH = 256
	cfg.BreakHammer = true
	return cfg
}

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

// TestParallelChannelsDeterministic is the tentpole contract: ticking
// the channels of a cycle batch on the worker pool produces results
// byte-identical to the serial batch, for every channel count and for
// both attack and benign mixes. The comparison is the JSON encoding of
// the complete Result — merged and per-channel controller stats, cache
// stats, BreakHammer stats, latency histograms, energy — so any
// reordering of cross-channel events would surface.
func TestParallelChannelsDeterministic(t *testing.T) {
	for _, channels := range []int{1, 2, 4, 8} {
		for _, mixName := range []string{"HLMA", "HML"} {
			t.Run(fmt.Sprintf("channels=%d/mix=%s", channels, mixName), func(t *testing.T) {
				serial := parallelTestConfig(channels)
				parallel := serial
				parallel.ParallelChannels = true
				a := runOnce(t, serial, mixName)
				b := runOnce(t, parallel, mixName)
				if string(a) != string(b) {
					t.Fatalf("parallel result diverged from serial (%d channels, mix %s):\nserial:   %.400s\nparallel: %.400s",
						channels, mixName, a, b)
				}
			})
		}
	}
}

// TestParallelChannelsDeterministicEveryCycleLoop pins the contract
// for a lockstep run too (BlockHammer forces one, and the ActGate runs
// inside worker ticks there).
func TestParallelChannelsDeterministicEveryCycleLoop(t *testing.T) {
	serial := parallelTestConfig(4)
	serial.Mechanism = "blockhammer"
	serial.BreakHammer = false
	parallel := serial
	parallel.ParallelChannels = true
	a := runOnce(t, serial, "HLMA")
	b := runOnce(t, parallel, "HLMA")
	if string(a) != string(b) {
		t.Fatalf("parallel result diverged from serial in a lockstep run:\nserial:   %.400s\nparallel: %.400s", a, b)
	}
}

// actEvent is one recorded cross-channel activate-hook observation.
type actEvent struct {
	channel, bank, row, thread int
	now                        int64
}

// latEvent is one recorded latency-sink observation.
type latEvent struct {
	thread int
	cycles int64
}

// observeRun wires recording observers into a fresh system — an
// activate hook appended after BreakHammer's and the mechanisms' (so it
// sees the drained stream in the same order they do) and a latency sink
// replacing the histogram recorder — and returns both sequences.
func observeRun(t *testing.T, cfg Config, mixName string) ([]actEvent, []latEvent) {
	t.Helper()
	mix, err := workload.ParseMix(mixName, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	var acts []actEvent
	var lats []latEvent
	sys.Memory().AddActivateHook(func(channel, bank, row, thread int, now int64) {
		acts = append(acts, actEvent{channel, bank, row, thread, now})
	})
	sys.Memory().SetLatencySink(func(thread int, cycles int64) {
		lats = append(lats, latEvent{thread, cycles})
	})
	sys.Run()
	return acts, lats
}

// TestCrossChannelEventOrderSerialVsParallel is the regression test for
// the batch-drain contract stated in DESIGN.md: cross-channel observers
// — BreakHammer's attribution hook and the latency sink — must see the
// exact same event sequences (values AND order) whether the cycle batch
// ticked serially or on the worker pool.
func TestCrossChannelEventOrderSerialVsParallel(t *testing.T) {
	serial := parallelTestConfig(4)
	parallel := serial
	parallel.ParallelChannels = true

	actsA, latsA := observeRun(t, serial, "HLMA")
	actsB, latsB := observeRun(t, parallel, "HLMA")

	if len(actsA) == 0 || len(latsA) == 0 {
		t.Fatalf("observation run recorded no events (acts=%d, lats=%d)", len(actsA), len(latsA))
	}
	if len(actsA) != len(actsB) {
		t.Fatalf("activate-hook streams differ in length: serial %d, parallel %d", len(actsA), len(actsB))
	}
	for i := range actsA {
		if actsA[i] != actsB[i] {
			t.Fatalf("activate-hook stream diverges at %d: serial %+v, parallel %+v", i, actsA[i], actsB[i])
		}
	}
	if len(latsA) != len(latsB) {
		t.Fatalf("latency-sink streams differ in length: serial %d, parallel %d", len(latsA), len(latsB))
	}
	for i := range latsA {
		if latsA[i] != latsB[i] {
			t.Fatalf("latency-sink stream diverges at %d: serial %+v, parallel %+v", i, latsA[i], latsB[i])
		}
	}
	// The streams came from several channels, or the test proves nothing
	// about cross-channel ordering.
	seen := map[int]bool{}
	for _, a := range actsA {
		seen[a.channel] = true
	}
	if len(seen) < 2 {
		t.Fatalf("activation stream touched only %d channel(s)", len(seen))
	}
}

// TestFingerprintIgnoresParallelChannels pins the cache contract: the
// execution strategy — parallel channel ticking, lockstep execution —
// must fork neither the results store nor the alone-baseline cache.
func TestFingerprintIgnoresParallelChannels(t *testing.T) {
	mix, err := workload.ParseMix("HA", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := FastConfig()
	want, err := Fingerprint(base, []workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(*Config){
		"ParallelChannels": func(c *Config) { c.ParallelChannels = true },
		"DisableSkipAhead": func(c *Config) { c.DisableSkipAhead = true },
	} {
		cfg := base
		set(&cfg)
		got, err := Fingerprint(cfg, []workload.Mix{mix})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s changed the fingerprint:\n%s\n%s", name, want, got)
		}
		if a, b := aloneKey(base, mix.Specs[0]), aloneKey(cfg, mix.Specs[0]); a != b {
			t.Errorf("%s changed the alone-baseline key:\n%s\n%s", name, a, b)
		}
	}
}
