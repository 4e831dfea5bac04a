// Package sim wires the full simulated system together — DRAM device,
// memory controller, LLC, cores, mitigation mechanism and BreakHammer —
// and runs multi-programmed workloads to completion, producing the metrics
// the paper's figures are built from.
package sim

import (
	"fmt"

	"breakhammer/internal/cache"
	"breakhammer/internal/cpu"
	"breakhammer/internal/dram"
	"breakhammer/internal/memctrl"
	"breakhammer/internal/sampling"
)

// Config describes one simulation.
type Config struct {
	DRAM   dram.Config
	Timing dram.Timing
	MC     memctrl.Config
	Cache  cache.Config
	Core   cpu.Config

	// Channels is the memory channel count (0 or 1 = the paper's
	// single-channel Table 1 system; must be a power of two). Each channel
	// gets its own controller, DRAM device and mitigation-mechanism
	// instance; lines interleave across channels per AddressMap.
	Channels int

	// ParallelChannels does nothing: every multi-channel cycle is the
	// serial batch (memsys.Interleaved.Tick). Fingerprint zeroes it and
	// aloneNormalised lists it, so setting it moves no store key.
	//
	// Deprecated: it selected a channel-tick worker pool, which is gone.
	// Its last reader is the repository benchmark's memsys.parallel_ratio
	// (bench/simwl.go); it goes with that metric.
	ParallelChannels bool

	// DisableSkipAhead runs the one detailed driver (System.runDetailed)
	// in lockstep: no core sleeps and no idle span is skipped, in exact
	// runs and in a sampled run's warm-up and detail spans alike. It
	// selects no second implementation and changes no result, so
	// Fingerprint ignores it. It is kept as the
	// differential oracle of TestSkipAheadMatchesEveryCycle and because
	// the repository benchmark (bench/) times the skip-ahead win with it.
	DisableSkipAhead bool

	NRH         int    // RowHammer threshold
	Mechanism   string // mitigation name ("none", "para", ..., "blockhammer")
	BreakHammer bool   // pair the mechanism with BreakHammer
	BlastRadius int    // victim rows per side

	// ThrottleAt selects where BreakHammer's quota is enforced:
	// "mshr" (default, §4.3: LLC cache-miss buffers) or "lsu" (§4.4:
	// unresolved loads at the core, for cacheless/DMA-style systems).
	ThrottleAt string

	// AddressMap selects the physical address layout: "mop" (default,
	// Table 1) or "rowint" (row-interleaved RoBaRaCoCh baseline).
	AddressMap string

	// RowPressFactor (>= 1; default 1) hardens the mitigation against
	// RowPress (§2.2): trigger algorithms are configured against
	// NRH/RowPressFactor, i.e. "more aggressive ... relatively lower N_RH
	// values", because keeping a row open amplifies disturbance beyond
	// what the activation count alone suggests.
	RowPressFactor int

	// BreakHammer parameters (zero values take Table 2 defaults).
	BHWindow  int64   // throttling window in cycles; 0 = 64 ms
	BHThreat  float64 // 0 = 32
	BHOutlier float64 // 0 = 0.65

	// Sampling enables SMARTS-style interval sampling: long functional
	// fast-forward windows alternate with short detailed windows and
	// every reported metric carries a confidence interval. Sampling
	// changes what is simulated, so it participates in Fingerprint —
	// sampled and exact results can never share a store key.
	Sampling sampling.Params

	TargetInsts int64 // instructions each benign core must retire
	MaxCycles   int64 // hard simulation cap
	Seed        int64

	// RowCensus makes the run count activations per DRAM row, on
	// every channel, and report the summary as Result.RowCensus (Table 3's
	// ACT-64+/128+/512+ columns). It costs a map update per activation, so
	// the hook is installed only when set. Unset, the field is absent from
	// the JSON encoding: no fingerprint that predates it moves.
	RowCensus bool `json:",omitempty"`
}

// DefaultConfig returns the paper-scale Table 1 system: it uses the full
// 64 ms throttling window and 100M-instruction targets. Full-scale runs
// are hours long; use FastConfig for the bundled harness.
func DefaultConfig() Config {
	t := dram.DDR5()
	return Config{
		DRAM:        dram.Default(),
		Timing:      t,
		MC:          memctrl.DefaultConfig(),
		Cache:       cache.DefaultConfig(),
		Core:        cpu.DefaultConfig(),
		Channels:    1,
		NRH:         1024,
		Mechanism:   "none",
		BlastRadius: 2,
		BHWindow:    t.NsToCycles(64e6), // 64 ms
		TargetInsts: 100_000_000,
		MaxCycles:   1 << 62,
		Seed:        1,
	}
}

// FastConfig returns the scaled-down configuration used by the bundled
// experiment harness: 60K instructions per core and a proportionally
// shortened throttling window (the detection dynamics are event-driven,
// so shrinking the window preserves behaviour; see EXPERIMENTS.md).
func FastConfig() Config {
	c := DefaultConfig()
	c.TargetInsts = 400_000
	c.BHWindow = 1_000_000 // ~0.4 ms: several windows per simulation
	c.MaxCycles = 60_000_000
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.validateMachine(); err != nil {
		return err
	}
	if c.NRH <= 0 {
		return fmt.Errorf("sim: NRH must be positive, got %d", c.NRH)
	}
	if c.TargetInsts <= 0 {
		return fmt.Errorf("sim: TargetInsts must be positive, got %d", c.TargetInsts)
	}
	if c.MaxCycles <= 0 {
		return fmt.Errorf("sim: MaxCycles must be positive, got %d", c.MaxCycles)
	}
	if c.BlastRadius <= 0 {
		return fmt.Errorf("sim: BlastRadius must be positive, got %d", c.BlastRadius)
	}
	if c.Mechanism == "blockhammer" && c.BreakHammer {
		return fmt.Errorf("sim: BlockHammer is a standalone baseline; it is not paired with BreakHammer (§8.3)")
	}
	switch c.ThrottleAt {
	case "", "mshr", "lsu":
	default:
		return fmt.Errorf("sim: ThrottleAt must be \"mshr\" or \"lsu\", got %q", c.ThrottleAt)
	}
	switch c.AddressMap {
	case "", "mop", "rowint":
	default:
		return fmt.Errorf("sim: AddressMap must be \"mop\" or \"rowint\", got %q", c.AddressMap)
	}
	if c.RowPressFactor < 0 {
		return fmt.Errorf("sim: RowPressFactor must be >= 1 (or 0 for default), got %d", c.RowPressFactor)
	}
	if c.Channels < 0 {
		return fmt.Errorf("sim: Channels must be >= 0, got %d", c.Channels)
	}
	if c.Channels > 0 && c.Channels&(c.Channels-1) != 0 {
		return fmt.Errorf("sim: Channels must be a power of two, got %d", c.Channels)
	}
	if err := c.Sampling.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Sampling.Enabled && c.Mechanism == "blockhammer" {
		// Fast-forward schedules nothing, so BlockHammer's ActGate never
		// delays an activation there: the run would be thousands of times
		// off, not approximate.
		return fmt.Errorf("sim: BlockHammer cannot run sampled: no ActGate runs in fast-forward; run it exact")
	}
	return nil
}

// validateMachine checks the LLC, memory-controller and core parameters. A
// shape the components would accept silently is a wrong simulation, not an
// error: the LLC indexes sets with a mask, so a set count that is not a
// power of two leaves sets unreachable, and a zero-entry queue or window
// never moves an instruction and spins to MaxCycles.
func (c Config) validateMachine() error {
	l := c.Cache
	if l.Ways <= 0 || l.LineBytes <= 0 || l.MSHRs <= 0 || l.HitLatency < 0 {
		return fmt.Errorf("sim: Cache needs positive Ways, LineBytes and MSHRs and a non-negative HitLatency, got %+v", l)
	}
	if sets := l.Sets(); sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("sim: Cache.SizeBytes %d makes %d sets of %d ways of %d-byte lines; the set count must be a power of two", l.SizeBytes, sets, l.Ways, l.LineBytes)
	}
	m := c.MC
	if m.ReadQueue <= 0 || m.WriteQueue <= 0 {
		return fmt.Errorf("sim: MC queues must be positive, got ReadQueue %d, WriteQueue %d", m.ReadQueue, m.WriteQueue)
	}
	if m.WriteLo >= m.WriteHi || m.WriteHi > m.WriteQueue {
		return fmt.Errorf("sim: MC write drain needs WriteLo < WriteHi <= WriteQueue, got %d, %d, %d", m.WriteLo, m.WriteHi, m.WriteQueue)
	}
	if m.Cap < 0 {
		return fmt.Errorf("sim: MC.Cap must be >= 0, got %d", m.Cap)
	}
	if c.Core.WindowSize <= 0 || c.Core.IssueWidth <= 0 {
		return fmt.Errorf("sim: Core needs a positive WindowSize and IssueWidth, got %+v", c.Core)
	}
	return nil
}

// channels returns the effective channel count (zero value = 1).
func (c Config) channels() int {
	if c.Channels > 0 {
		return c.Channels
	}
	return 1
}

// effectiveNRH returns the threshold the mitigation is configured against
// (N_RH divided by the RowPress hardening factor, floor 1).
func (c Config) effectiveNRH() int {
	f := c.RowPressFactor
	if f <= 1 {
		return c.NRH
	}
	e := c.NRH / f
	if e < 1 {
		e = 1
	}
	return e
}

// bhWindow returns the throttling window in cycles.
func (c Config) bhWindow() int64 {
	if c.BHWindow > 0 {
		return c.BHWindow
	}
	return c.Timing.NsToCycles(64e6)
}
