package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"

	"breakhammer/internal/sampling"
	"breakhammer/internal/stats"
	"breakhammer/internal/workload"
)

// aloneCache memoizes single-core baseline IPCs across runs; weighted
// speedup divides every shared-mode IPC by the same alone-mode IPC, so
// recomputing it per configuration would only waste time.
var aloneCache sync.Map

// aloneNormalised names the Config fields an alone-mode baseline does not
// depend on, so aloneConfig pins them to DefaultConfig's values: the
// mechanism and BreakHammer (a baseline has neither) with everything that
// only parameterises them, the seed (the trace stream is seeded by
// spec.Seed, not cfg.Seed), the two execution strategies whose results
// are identical, sampling (see AloneIPC) and the row census (an observer
// the baseline never pays for). Every other field — DRAM geometry and
// timing, controller, cache and core parameters, channel count, address
// map, run length — is carried through, and so is a new Config field until
// it is named here (TestAloneConfigFields checks the partition).
var aloneNormalised = []string{
	"Mechanism", "BreakHammer", "NRH", "BlastRadius", "RowPressFactor",
	"ThrottleAt", "BHWindow", "BHThreat", "BHOutlier",
	"Seed", "ParallelChannels", "DisableSkipAhead", "Sampling", "RowCensus",
}

// aloneConfig returns the configuration the alone-mode baseline of a run
// under cfg executes with: cfg with the aloneNormalised fields at their
// defaults (valid values, not zeros — Validate rejects NRH 0), so that
// sweeps over them share one baseline instead of recomputing it, while
// sweeps over system structure never reuse a baseline from a different
// system.
func aloneConfig(cfg Config) Config {
	def := reflect.ValueOf(DefaultConfig())
	c := reflect.ValueOf(&cfg).Elem()
	for _, name := range aloneNormalised {
		c.FieldByName(name).Set(def.FieldByName(name))
	}
	return cfg
}

// aloneKey is the baseline's cache key: the configuration it runs under
// plus the full workload spec.
func aloneKey(cfg Config, spec workload.Spec) string {
	return fmt.Sprintf("%+v|%+v", aloneConfig(cfg), spec)
}

// AloneIPC returns the IPC of a spec running alone on the system with no
// mitigation — the denominator of weighted speedup and maximum slowdown.
// The baseline always runs exact, even under a sampled configuration: it
// is the shared denominator of every ratio metric, so sampling it would
// inject an independent estimation bias into both the sampled and the
// exact spelling of a point (a sampled alone IPC measures only post-
// warm-up steady state and overestimates a short run's true mean,
// inflating every slowdown). Alone runs are single-core and memoized
// across the sweep, so the exactness costs one short run per spec.
func AloneIPC(cfg Config, spec workload.Spec) (float64, error) {
	key := aloneKey(cfg, spec)
	if v, ok := aloneCache.Load(key); ok {
		return v.(float64), nil
	}
	sys, err := NewSystem(aloneConfig(cfg), workload.Mix{Name: "alone-" + spec.Name, Specs: []workload.Spec{spec}})
	if err != nil {
		return 0, err
	}
	res := sys.Run()
	ipc := res.IPC[0]
	aloneCache.Store(key, ipc)
	return ipc, nil
}

// MixResult augments a Result with the paper's two headline metrics.
type MixResult struct {
	Result
	WS         float64 // weighted speedup over benign applications
	Unfairness float64 // maximum slowdown on a benign application

	// WSBand and UnfairnessBand carry 95% confidence bands for sampled
	// runs (nil for exact runs), propagated from the per-thread IPC
	// intervals against the alone-mode baselines' means. UnfairnessBand
	// is omitted when any interval's low edge touches zero (the
	// slowdown bound would be unbounded).
	WSBand         *sampling.Estimate `json:",omitempty"`
	UnfairnessBand *sampling.Estimate `json:",omitempty"`
}

// RunMix builds and runs one simulation of the mix under cfg and computes
// benign weighted speedup and unfairness against alone-mode baselines.
func RunMix(cfg Config, mix workload.Mix) (MixResult, error) {
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		return MixResult{}, err
	}
	res := sys.Run()
	res.MixName = mix.Name

	alone := make([]float64, len(mix.Specs))
	for i, spec := range mix.Specs {
		if !spec.Benign() {
			continue // attacker performance is neither waited for nor evaluated
		}
		a, err := AloneIPC(cfg, spec)
		if err != nil {
			return MixResult{}, err
		}
		alone[i] = a
	}
	mr := MixResult{
		Result:     res,
		WS:         stats.WeightedSpeedup(res.IPC, alone, res.Benign),
		Unfairness: stats.MaxSlowdown(res.IPC, alone, res.Benign),
	}
	if res.Sampling != nil && res.Sampling.Windows > 0 {
		mr.WSBand, mr.UnfairnessBand = metricBands(res.Sampling, alone, res.Benign, mr.WS, mr.Unfairness)
	}
	return mr, nil
}

// metricBands propagates the per-thread sampled IPC intervals into
// weighted-speedup and unfairness bands. The alone baselines enter as
// point values: AloneIPC always runs them exact, even when the
// configuration samples, so they carry no window noise of their own;
// what the sampled numerators' bias does to the ratios is part of what
// exp.SamplingValidation quantifies.
func metricBands(sum *sampling.Summary, alone []float64, benign []bool, ws, unf float64) (wsBand, unfBand *sampling.Estimate) {
	var wsLo, wsHi float64
	unfLo, unfHi := 0.0, 0.0
	unfOK := true
	for i, est := range sum.IPC {
		if !benign[i] || alone[i] <= 0 {
			continue
		}
		wsLo += est.Lo / alone[i]
		wsHi += est.Hi / alone[i]
		if est.Lo <= 0 {
			unfOK = false
			continue
		}
		// Slowdown is anti-monotone in IPC: the band flips.
		if s := alone[i] / est.Hi; s > unfLo {
			unfLo = s
		}
		if s := alone[i] / est.Lo; s > unfHi {
			unfHi = s
		}
	}
	wsBand = &sampling.Estimate{Mean: ws, Lo: wsLo, Hi: wsHi, N: sum.Windows}
	if unfOK {
		unfBand = &sampling.Estimate{Mean: unf, Lo: unfLo, Hi: unfHi, N: sum.Windows}
	}
	return wsBand, unfBand
}

// RunMixes runs one configuration across many mixes in parallel and
// returns results in mix order.
func RunMixes(cfg Config, mixes []workload.Mix) ([]MixResult, error) {
	results := make([]MixResult, len(mixes))
	errs := make([]error, len(mixes))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, m := range mixes {
		wg.Add(1)
		go func(i int, m workload.Mix) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = RunMix(cfg, m)
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
