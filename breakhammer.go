// Package breakhammer is a from-scratch Go reproduction of
// "BreakHammer: Enhancing RowHammer Mitigations by Carefully Throttling
// Suspect Threads" (Canpolat et al., MICRO 2024, arXiv:2404.13477).
//
// The package wraps a cycle-level simulation stack — a DDR5 DRAM device
// model, an FR-FCFS+Cap memory controller, a shared LLC with per-thread
// MSHR quotas, trace-driven out-of-order cores, eight RowHammer mitigation
// mechanisms (PARA, Graphene, Hydra, TWiCe, AQUA, REGA, RFM, PRAC) plus
// the BlockHammer baseline, and the BreakHammer mechanism itself — behind
// a small façade:
//
//	cfg := breakhammer.FastConfig()
//	cfg.Mechanism = "graphene"
//	cfg.NRH = 1024
//	cfg.BreakHammer = true
//	mix, _ := breakhammer.ParseMix("HHMA", 1)
//	res, _ := breakhammer.Run(cfg, mix)
//	fmt.Println(res.WS, res.Unfairness, res.Actions)
//
// The paper's full evaluation (Figures 2 and 5-19, Tables 1-3, the §6
// hardware-cost inventory) regenerates through Experiments. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for paper-vs-measured
// results.
package breakhammer

import (
	"breakhammer/internal/core"
	"breakhammer/internal/exp"
	"breakhammer/internal/mitigation"
	"breakhammer/internal/sampling"
	"breakhammer/internal/security"
	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// Config describes one simulation (system topology, mechanism, N_RH,
// BreakHammer pairing, run length).
type Config = sim.Config

// Mix is a multi-programmed workload, one application per core.
type Mix = workload.Mix

// Spec describes one application's synthetic trace.
type Spec = workload.Spec

// MixResult carries a finished simulation's metrics: benign weighted
// speedup, unfairness, per-thread IPC and RBMPKI, latency histograms,
// DRAM energy, preventive-action counts and BreakHammer statistics.
type MixResult = sim.MixResult

// Result is the raw per-simulation outcome embedded in MixResult.
type Result = sim.Result

// SamplingParams configures SMARTS-style interval sampling for one
// simulation (Config.Sampling). The zero value means exact simulation;
// Enabled with zero window sizes uses the package defaults. Sampled
// results carry per-metric confidence bands in MixResult and never
// share a results-store key with exact ones.
type SamplingParams = sampling.Params

// SamplingEstimate is a sampled metric estimate: mean, 95% confidence
// interval, and the number of measured windows behind it.
type SamplingEstimate = sampling.Estimate

// Experiments regenerates the paper's tables and figures.
type Experiments = exp.Runner

// ExperimentOptions scales the experiment harness.
type ExperimentOptions = exp.Options

// Table is a printable result grid (ASCII via String, CSV via CSV).
type Table = exp.Table

// DefaultConfig returns the paper-scale Table 1 system configuration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// FastConfig returns the scaled-down configuration used by the bundled
// harness (minutes instead of cluster-days; shapes preserved).
func FastConfig() Config { return sim.FastConfig() }

// ParseMix builds a workload mix from its class letters (H, M, L, A),
// e.g. "HHMA" = two high-intensity applications, one medium, one attacker.
func ParseMix(letters string, seed int64) (Mix, error) {
	return workload.ParseMix(letters, seed)
}

// AttackMixes returns the paper's six attacker mix groups (§8.1) with n
// seeded variants each.
func AttackMixes(n int) []Mix { return workload.AttackMixes(n) }

// BenignMixes returns the paper's six all-benign mix groups (§8.2).
func BenignMixes(n int) []Mix { return workload.BenignMixes(n) }

// Run executes one simulation and computes weighted speedup and
// unfairness against cached alone-mode baselines.
func Run(cfg Config, mix Mix) (MixResult, error) { return sim.RunMix(cfg, mix) }

// RunAll executes one configuration across mixes in parallel.
func RunAll(cfg Config, mixes []Mix) ([]MixResult, error) { return sim.RunMixes(cfg, mixes) }

// Mechanisms lists the eight mitigation mechanisms BreakHammer pairs
// with, in the paper's order. "blockhammer" (the standalone baseline) and
// "none" are also accepted by Config.Mechanism.
func Mechanisms() []string { return mitigation.Names() }

// NewExperiments builds the figure/table regeneration harness.
func NewExperiments(opts ExperimentOptions) *Experiments { return exp.NewRunner(opts) }

// DefaultExperimentOptions returns the scaled-down harness options.
func DefaultExperimentOptions() ExperimentOptions { return exp.DefaultOptions() }

// QuickExperimentOptions returns minimal options for smoke tests.
func QuickExperimentOptions() ExperimentOptions { return exp.QuickOptions() }

// MaxAttackerScore evaluates the paper's Expression 2 security bound: the
// largest RowHammer-preventive score (normalized to the benign average)
// an attack thread can hold without being identified as a suspect, given
// the fraction of hardware threads the attacker controls.
func MaxAttackerScore(attackerFrac, thOutlier float64) float64 {
	return security.MaxAttackerScore(attackerFrac, thOutlier)
}

// MinAttackerFraction inverts MaxAttackerScore: the thread share an
// attacker needs before an attack thread can hold the target score.
func MinAttackerFraction(target, thOutlier float64) float64 {
	return security.MinAttackerFraction(target, thOutlier)
}

// System is a fully wired simulated machine for callers that need
// in-simulation access (activation hooks, BreakHammer feedback registers)
// rather than just end-of-run metrics.
type System = sim.System

// NewSystem builds a system without running it. Use Run on the returned
// System; install hooks first via System.Controller().
func NewSystem(cfg Config, mix Mix) (*System, error) { return sim.NewSystem(cfg, mix) }

// BHSnapshot is a copy of BreakHammer's per-thread feedback registers
// (§4's optional system-software interface).
type BHSnapshot = core.Snapshot

// OwnerTracker aggregates RowHammer-preventive scores per software owner
// (process, address space, user) across hardware threads — the §5.2
// defense against attacks that rotate across threads.
type OwnerTracker = core.OwnerTracker

// NewOwnerTracker builds an OwnerTracker for the given thread count.
func NewOwnerTracker(threads int) *OwnerTracker { return core.NewOwnerTracker(threads) }

// AttackerSpec returns the standard bank-parallel many-sided RowHammer
// attacker used in the paper's attack mixes.
func AttackerSpec(idx int, seed int64) Spec { return workload.AttackerSpec(idx, seed) }

// RotatingAttackerSpec returns one thread of a §5.2 rotating attack that
// alternates hammering among `slots` threads.
func RotatingAttackerSpec(index, slots int, period, seed int64) Spec {
	return workload.RotatingAttackerSpec(index, slots, period, seed)
}

// TraceSpec returns a benign spec replaying the recorded trace file at
// path on core idx. Trace-backed simulations are cached by the trace's
// content hash, never its path.
func TraceSpec(path string, idx int) Spec { return workload.TraceSpec(path, idx) }

// ResolveTraceHashes returns a copy of mixes with every trace-backed
// spec's content hash pinned from its file. Pin before deriving a store
// key and simulate with the pinned mixes, so an edit to the file in
// between fails loudly instead of storing mismatched results.
func ResolveTraceHashes(mixes []Mix) ([]Mix, error) { return workload.ResolveTraceHashes(mixes) }

// BenignSpec returns a benign application spec of the given class letter
// (H, M or L).
func BenignSpec(letter byte, idx int, seed int64) (Spec, error) {
	c, err := workload.ParseClass(letter)
	if err != nil {
		return Spec{}, err
	}
	return workload.ClassSpec(c, idx, seed), nil
}
