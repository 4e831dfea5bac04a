package exp

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"breakhammer/internal/sampling"
	"breakhammer/internal/scenario"
	"breakhammer/internal/sim"
)

// PaperOptions returns the paper-scale harness configuration: the full
// Table 1 system (100M instructions, 64 ms throttling window) via
// sim.DefaultConfig, 15 mixes per group (90 workloads), and the seven
// N_RH values of the paper's sweeps. A full sweep at this scale takes
// cluster days; it is meant to accumulate across invocations and
// machines sharing one cache directory.
func PaperOptions() Options {
	o := DefaultOptions()
	o.Base = sim.DefaultConfig()
	o.MixesPerGroup = 15
	o.NRHs = []int{4096, 2048, 1024, 512, 256, 128, 64}
	return o
}

// OptionSpec is the flag- and request-level description of a sweep
// configuration: a named preset plus overrides. bhsweep and bhserve
// both resolve their flags through it, so a server and a CLI pointed at
// the same cache directory with the same spec address the same points.
type OptionSpec struct {
	Preset     string // "default" (or ""), "quick", "paper"
	Mixes      int    // workload mixes per group; 0 = preset default
	Channels   int    // memory channels; 0 = preset default
	Insts      int64  // instructions per benign core; 0 = preset default
	NRHs       string // comma-separated N_RH sweep; "" = preset default
	Mechanisms string // comma-separated mechanism list; "" = preset default
	Traces     string // comma-separated trace files driving benign cores; "" = synthetic workloads
	Strategies string // comma-separated adaptive strategies for the scenario grid; "" = preset default
	Defenses   string // comma-separated composed defenses ("graphene+bh,prac+rfm+bh"); "" = preset default

	// Sample switches every simulation of the sweep to interval
	// sampling (sim.Config.Sampling): alternating fast-forwarded and
	// detailed windows whose measured metrics carry confidence bands.
	// This changes what is simulated — sampled points key separately in
	// the results store and can never serve an exact figure. Warmup,
	// Detail and FF override the window sizes in cycles (0 = the
	// sampling package defaults, sized for paper-scale runs; CI-scale
	// runs need explicit smaller windows).
	Sample bool
	Warmup int64
	Detail int64
	FF     int64
}

// Bind declares the sweep-shaping flags on fs, parsing into sp — the one
// declaration bhsweep and bhserve share, so the two binaries cannot
// drift. The preset is not among them: each binary spells it its own
// way (-quick/-paper, -preset) and sets sp.Preset itself.
func (sp *OptionSpec) Bind(fs *flag.FlagSet) {
	fs.IntVar(&sp.Mixes, "mixes", 0, "workload mixes per group (0 = preset default; paper: 15)")
	fs.IntVar(&sp.Channels, "channels", 0, "memory channels for every experiment point (power of two; 0 = preset default)")
	fs.Int64Var(&sp.Insts, "insts", 0, "instructions per benign core (0 = preset default)")
	fs.StringVar(&sp.NRHs, "nrhs", "", "comma-separated N_RH sweep (empty = preset default)")
	fs.StringVar(&sp.Mechanisms, "mechs", "", "comma-separated mechanisms (empty = preset default)")
	fs.StringVar(&sp.Traces, "traces", "", "comma-separated trace files; point-sweep figures replay them (one benign core per file) instead of the synthetic mixes (table3/sec5 stay synthetic)")
	fs.StringVar(&sp.Strategies, "strategies", "", "comma-separated adaptive attacker strategies for the scenario grid (default hammer,probe,burst,decoy)")
	fs.StringVar(&sp.Defenses, "defenses", "", "comma-separated composed defenses for the scenario grid, e.g. graphene+bh,prac+rfm+bh")
	fs.BoolVar(&sp.Sample, "sample", false, "SMARTS interval sampling for every simulated point: metrics become estimates with 95% confidence bands, cached under keys distinct from exact runs; fleet workers inherit this through the hello handshake")
	fs.Int64Var(&sp.Warmup, "warmup", 0, "with -sample: detailed-but-unmeasured warm-up cycles before each measured window (0 = default)")
	fs.Int64Var(&sp.Detail, "detail", 0, "with -sample: measured detailed window length in cycles (0 = default)")
	fs.Int64Var(&sp.FF, "ff", 0, "with -sample: functional fast-forward window length in cycles (0 = default)")
}

// Resolve expands the spec into concrete Options, validating the preset
// name and numeric overrides.
func (sp OptionSpec) Resolve() (Options, error) {
	var o Options
	switch sp.Preset {
	case "", "default":
		o = DefaultOptions()
	case "quick":
		o = QuickOptions()
	case "paper":
		o = PaperOptions()
	default:
		return Options{}, fmt.Errorf("exp: unknown preset %q (want default, quick or paper)", sp.Preset)
	}
	return sp.ApplyTo(o)
}

// ApplyTo resolves the spec's overrides onto an existing options value
// instead of a named preset — the parsing and validation are exactly
// Resolve's. bhserve resolves POST-parameterized figure requests
// through it, applying a request's sweep subsets (N_RH values,
// mechanisms, strategies, defenses) over the server's base options so
// request-derived points key identically to a CLI sweep with the same
// flags. The Preset field is ignored here; the base is o.
func (sp OptionSpec) ApplyTo(o Options) (Options, error) {
	if sp.Mixes < 0 {
		return Options{}, fmt.Errorf("exp: mixes must be positive, got %d", sp.Mixes)
	}
	if sp.Mixes > 0 {
		o.MixesPerGroup = sp.Mixes
	}
	if sp.Channels > 0 {
		o.Base.Channels = sp.Channels
	}
	if sp.Insts > 0 {
		o.Base.TargetInsts = sp.Insts
	}
	if sp.NRHs != "" {
		// Fresh slices, not o.NRHs[:0]: the base options may be shared (a
		// server resolving a request over its live sweep options), and
		// truncate-and-append would scribble on the caller's array.
		o.NRHs = nil
		for _, s := range strings.Split(sp.NRHs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				return Options{}, fmt.Errorf("exp: bad N_RH entry %q", s)
			}
			o.NRHs = append(o.NRHs, v)
		}
	}
	if sp.Mechanisms != "" {
		o.Mechanisms = nil
		for _, m := range strings.Split(sp.Mechanisms, ",") {
			o.Mechanisms = append(o.Mechanisms, strings.TrimSpace(m))
		}
	}
	if sp.Traces != "" {
		o.Traces = append([]string(nil), o.Traces...)
		for _, t := range strings.Split(sp.Traces, ",") {
			t = strings.TrimSpace(t)
			if t == "" {
				return Options{}, fmt.Errorf("exp: empty trace path in %q", sp.Traces)
			}
			o.Traces = append(o.Traces, t)
		}
	}
	if sp.Strategies != "" {
		o.Strategies = nil
		for _, s := range strings.Split(sp.Strategies, ",") {
			s = strings.TrimSpace(s)
			if err := scenario.ValidStrategy(s); err != nil {
				return Options{}, fmt.Errorf("exp: %w", err)
			}
			o.Strategies = append(o.Strategies, s)
		}
	}
	if sp.Defenses != "" {
		ds, err := scenario.ParseDefenses(strings.Split(sp.Defenses, ","))
		if err != nil {
			return Options{}, fmt.Errorf("exp: %w", err)
		}
		o.Defenses = ds
	}
	if sp.Sample || sp.Warmup != 0 || sp.Detail != 0 || sp.FF != 0 {
		o.Base.Sampling = sampling.Params{
			Enabled:      sp.Sample,
			WarmupCycles: sp.Warmup,
			DetailCycles: sp.Detail,
			FFCycles:     sp.FF,
		}
		// Surface window errors (sizes without -sample, negative or zero
		// windows) at flag-resolution time rather than at the first point.
		if err := o.Base.Sampling.Validate(); err != nil {
			return Options{}, fmt.Errorf("exp: %w", err)
		}
	}
	return o, nil
}
