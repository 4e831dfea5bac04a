package sim

import (
	"bytes"
	"fmt"
	"testing"

	"breakhammer/internal/sampling"
	"breakhammer/internal/workload"
)

// parallelTestConfig returns a small configuration of channels that
// tick side by side, which still exercises the full callback surface: a trigger-based mechanism
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

// sampledTestConfig shrinks the sampling windows to CI scale: the
// defaults assume multi-million-cycle runs. A 50k-cycle period (2k
// warm-up, 8k detailed, 40k fast-forwarded) paired with a run long
// enough to span several periods yields multiple measured windows while
// still fast-forwarding most of the run.
func sampledTestConfig(channels int) Config {
	cfg := parallelTestConfig(channels)
	cfg.TargetInsts = 400_000
	cfg.Sampling = sampling.Params{
		Enabled:      true,
		WarmupCycles: 2_000,
		DetailCycles: 8_000,
		FFCycles:     40_000,
	}
	return cfg
}

// TestSampledRunSanity checks the basic shape of a sampled run: the
// result is marked sampled, the cycle ledger splits exactly into
// detailed and fast-forwarded cycles, several measured windows were
// aggregated, every benign thread finished, and each estimate brackets
// its own mean.
func TestSampledRunSanity(t *testing.T) {
	cfg := sampledTestConfig(2)
	mix, err := workload.ParseMix("HLMA", 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run()

	if !res.Sampled() || res.Sampling == nil {
		t.Fatal("sampled run did not produce a sampling summary")
	}
	sum := res.Sampling
	if sum.Windows < 2 {
		t.Fatalf("expected >=2 measured windows, got %d", sum.Windows)
	}
	if sum.FFCycles <= 0 || sum.DetailedCycles <= 0 {
		t.Fatalf("cycle split degenerate: detailed=%d ff=%d", sum.DetailedCycles, sum.FFCycles)
	}
	if got := sum.DetailedCycles + sum.FFCycles; got != res.Cycles {
		t.Fatalf("cycle ledger leak: detailed %d + ff %d != total %d",
			sum.DetailedCycles, sum.FFCycles, res.Cycles)
	}
	if sum.FFCycles <= sum.DetailedCycles {
		t.Fatalf("fast-forward did not dominate: detailed=%d ff=%d", sum.DetailedCycles, sum.FFCycles)
	}
	for i, benign := range res.Benign {
		if !benign {
			continue
		}
		if res.IPC[i] <= 0 {
			t.Fatalf("thread %d: sampled IPC %v not positive", i, res.IPC[i])
		}
		est := sum.IPC[i]
		// Per-thread N may trail Windows: a thread contributes nothing
		// to windows after it retires its target.
		if est.N < 1 || est.N > sum.Windows {
			t.Fatalf("thread %d: estimate over %d windows, summary has %d", i, est.N, sum.Windows)
		}
		if !(est.Lo <= est.Mean && est.Mean <= est.Hi) {
			t.Fatalf("thread %d: IPC interval [%v, %v] does not bracket mean %v", i, est.Lo, est.Hi, est.Mean)
		}
		if mp := sum.RBMPKI[i]; !(mp.Lo <= mp.Mean && mp.Mean <= mp.Hi) {
			t.Fatalf("thread %d: RBMPKI interval [%v, %v] does not bracket mean %v", i, mp.Lo, mp.Hi, mp.Mean)
		}
	}
}

// TestSampledParallelChannelsDeterministic extends the multi-channel
// execution-strategy pin to the sampled loop: the mode switches,
// functional replay and window aggregation give one Result whether the
// warm-up and detail spans skip idle cycles or tick every one, at 1, 2
// and 4 channels.
func TestSampledParallelChannelsDeterministic(t *testing.T) {
	for _, channels := range []int{1, 2, 4} {
		for _, mixName := range []string{"HLMA", "HML"} {
			t.Run(fmt.Sprintf("channels=%d/mix=%s", channels, mixName), func(t *testing.T) {
				cfg := sampledTestConfig(channels)
				skip := runOnce(t, cfg, mixName)
				cfg.DisableSkipAhead = true
				lockstep := runOnce(t, cfg, mixName)
				if !bytes.Equal(skip, lockstep) {
					t.Fatalf("sampled skip-ahead and lockstep results diverge:\nskip:     %s\nlockstep: %s", skip, lockstep)
				}
			})
		}
	}
}

// TestSampledFingerprintSeparatesExact pins the store-isolation
// contract: a sampled configuration never shares a fingerprint with the
// exact one, window sizes are part of the key, and the default window
// spelling (enabled with zero sizes) keys identically to the explicit
// defaults so a future default change cannot silently alias old
// records.
func TestSampledFingerprintSeparatesExact(t *testing.T) {
	mix, err := workload.ParseMix("HL", 5)
	if err != nil {
		t.Fatal(err)
	}
	mixes := []workload.Mix{mix}
	fp := func(cfg Config) string {
		t.Helper()
		raw, err := Fingerprint(cfg, mixes)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	exact := parallelTestConfig(2)
	sampled := sampledTestConfig(2)
	if fp(exact) == fp(sampled) {
		t.Fatal("sampled and exact configurations share a fingerprint")
	}

	smaller := sampled
	smaller.Sampling.DetailCycles = 4_000
	if fp(sampled) == fp(smaller) {
		t.Fatal("different detail-window sizes share a fingerprint")
	}

	implicit := exact
	implicit.Sampling = sampling.Params{Enabled: true}
	explicit := exact
	explicit.Sampling = sampling.Params{
		Enabled:      true,
		WarmupCycles: sampling.DefaultWarmupCycles,
		DetailCycles: sampling.DefaultDetailCycles,
		FFCycles:     sampling.DefaultFFCycles,
	}
	if fp(implicit) != fp(explicit) {
		t.Fatal("default and explicitly-spelled-default windows key differently")
	}
}

// TestSamplingConfigValidate checks that sim.Config.Validate surfaces
// sampling parameter errors (the CLI relies on this single seam).
func TestSamplingConfigValidate(t *testing.T) {
	cfg := FastConfig()
	cfg.Sampling.DetailCycles = 1_000 // sizes without Enabled: rejected
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted sampling sizes with Enabled=false")
	}
	cfg = FastConfig()
	cfg.Sampling = sampling.Params{Enabled: true, FFCycles: -1}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted a negative fast-forward window")
	}
}

// fbRecorder is a scenario-strategy test double: a deterministic
// streaming source that records the cycle of every feedback delivery it
// observes into a shared sink.
type fbRecorder struct {
	n    uint64
	sink *[]int64
}

func (r *fbRecorder) Next() (int64, uint64, bool) {
	r.n++
	return 3, r.n * 7, false
}

func (r *fbRecorder) ObserveFeedback(fb workload.Feedback) {
	*r.sink = append(*r.sink, fb.Cycle)
}

// fbRecorderSink receives the feedback cycles of the next fbRecorder
// built by the registered factory. Tests run the simulations serially,
// so a package-level slot is race-free.
var fbRecorderSink *[]int64

func init() {
	workload.RegisterStrategy("test-feedback-recorder",
		func(spec workload.Spec, thread int) (workload.Source, error) {
			return &fbRecorder{sink: fbRecorderSink}, nil
		})
}

// feedbackCycles runs one mix containing a feedback recorder under cfg
// and returns the cycles at which feedback was delivered to it.
func feedbackCycles(t *testing.T, cfg Config) []int64 {
	t.Helper()
	benign, err := workload.ParseMix("H", 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := workload.Spec{
		Name:     "recorder",
		Class:    workload.Attacker,
		Strategy: "test-feedback-recorder",
		Seed:     1,
	}
	mix := workload.Mix{Name: "fb-seam", Specs: []workload.Spec{benign.Specs[0], rec}}

	var cycles []int64
	fbRecorderSink = &cycles
	defer func() { fbRecorderSink = nil }()

	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run()
	return cycles
}

// TestSampledFeedbackSeam pins the adaptive-attacker contract of the
// sampled loop: feedback is delivered at exactly the same cycles as in
// the exact loop — the fast-forward stepper treats every pending
// feedback cycle as an event boundary, so a jump can never skip a
// delivery. The two runs finish at different total cycles (that is the
// point of sampling), so the sequences are compared on their common
// prefix.
func TestSampledFeedbackSeam(t *testing.T) {
	exact := feedbackCycles(t, parallelTestConfig(2))
	sampled := feedbackCycles(t, sampledTestConfig(2))
	if len(exact) < 3 || len(sampled) < 3 {
		t.Fatalf("too few deliveries to compare: exact=%d sampled=%d", len(exact), len(sampled))
	}
	n := len(exact)
	if len(sampled) < n {
		n = len(sampled)
	}
	for i := 0; i < n; i++ {
		if exact[i] != sampled[i] {
			t.Fatalf("delivery %d: exact at cycle %d, sampled at cycle %d", i, exact[i], sampled[i])
		}
		if exact[i]%defaultFeedbackEvery != 0 {
			t.Fatalf("delivery %d at cycle %d is off the %d-cycle cadence", i, exact[i], defaultFeedbackEvery)
		}
	}
}
