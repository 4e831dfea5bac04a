package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"breakhammer/internal/mitigation"
	"breakhammer/internal/sampling"
	"breakhammer/internal/workload"
)

// Metamorphic relations: properties that tie two runs of the simulator to
// each other, so they need no oracle for the right answer and pin no
// golden bytes — they are red when a *symmetry* breaks, which "same bytes
// as before" cannot see when before was already wrong (ROADMAP item 1).

// metamorphicConfigs spans the grid a relation runs over: every
// mechanism, one and four channels, exact and sampled.
func metamorphicConfigs() []Config {
	var out []Config
	for _, mech := range mitigation.Names() {
		for _, channels := range []int{1, 4} {
			for _, sampled := range []bool{false, true} {
				c := FastConfig()
				c.TargetInsts = 30_000
				c.BHWindow = 60_000
				c.MaxCycles = 400_000
				c.NRH = 128
				c.Mechanism = mech
				c.Channels = channels
				if sampled {
					c.Sampling = sampling.Params{Enabled: true, WarmupCycles: 2_000, DetailCycles: 6_000, FFCycles: 24_000}
				}
				out = append(out, c)
			}
		}
	}
	return out
}

func configLabel(c Config) string {
	mode := "exact"
	if c.Sampling.Enabled {
		mode = "sampled"
	}
	return fmt.Sprintf("%s/%dch/%s", c.Mechanism, c.Channels, mode)
}

// differingFields compares two results field by field on their JSON
// encoding — the bytes the store would hold — and describes each top-level
// field that differs.
func differingFields(t *testing.T, a, b Result) []string {
	t.Helper()
	fields := func(r Result) map[string]json.RawMessage {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fa, fb := fields(a), fields(b)
	var out []string
	for name, va := range fa {
		if vb := fb[name]; !bytes.Equal(va, vb) {
			out = append(out, fmt.Sprintf("%s: %.200s -> %.200s", name, va, vb))
		}
	}
	sort.Strings(out)
	return out
}

func mustRun(t *testing.T, cfg Config, mix workload.Mix) Result {
	t.Helper()
	sys, err := NewSystem(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run()
}

// TestBreakHammerUnreachableIsBaseMechanism: with TH_threat so high that
// no thread is ever a suspect, BreakHammer only watches — mech+BH is the
// bare mechanism, byte for byte, in every field but BreakHammer's own,
// with its throttling windows rotating through sampled runs too.
func TestBreakHammerUnreachableIsBaseMechanism(t *testing.T) {
	mix := workload.AttackMixes(1)[0]
	for _, cfg := range metamorphicConfigs() {
		t.Run(configLabel(cfg), func(t *testing.T) {
			t.Parallel()
			base := mustRun(t, cfg, mix)
			cfg.BreakHammer = true
			cfg.BHThreat = 1e18
			with := mustRun(t, cfg, mix)
			if with.BH == nil {
				t.Fatal("BreakHammer run carries no BreakHammer stats")
			}
			for thread, n := range with.BH.SuspectEvents {
				if n != 0 {
					t.Fatalf("thread %d was marked suspect %d time(s) under an unreachable threshold", thread, n)
				}
			}
			with.BH = nil
			for _, d := range differingFields(t, base, with) {
				t.Errorf("an idle BreakHammer changed the run: %s", d)
			}
		})
	}
}

// discardIssuer takes a shadow mechanism's preventive requests and does
// nothing with them.
type discardIssuer struct{}

func (discardIssuer) RequestVRR(int, []int)          {}
func (discardIssuer) RequestRFM(int)                 {}
func (discardIssuer) RequestAux(int)                 {}
func (discardIssuer) RequestMigration(int, int, int) {}
func (discardIssuer) RequestBackoff(int, int)        {}

// TestModeAgreement: every activation of a run, detailed or fast-forward,
// reaches the channels' activate hooks — the one stream the mechanism and
// BreakHammer observe. A fresh instance of the run's mechanism, with the
// channel's seed, registered on every channel through the public
// AddActivateHook and acting into a sink, therefore sees exactly what the
// wired instance sees and takes as many preventive actions: the shadows'
// sum is Result.Actions, exact and sampled. The mechanisms are the
// trackers whose actions follow from the activation stream alone.
func TestModeAgreement(t *testing.T) {
	mix := mustMix(t, "HHMA")
	for _, cfg := range metamorphicConfigs() {
		switch cfg.Mechanism {
		case "graphene", "twice", "hydra", "aqua":
		default:
			continue
		}
		cfg.BreakHammer = true
		t.Run(configLabel(cfg), func(t *testing.T) {
			t.Parallel()
			sys, err := NewSystem(cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			var shadows []mitigation.Mechanism
			for ch := 0; ch < sys.Memory().Channels(); ch++ {
				m, err := mitigation.New(cfg.Mechanism, mitigation.Params{
					NRH:         cfg.NRH,
					BlastRadius: cfg.BlastRadius,
					Banks:       cfg.DRAM.TotalBanks(),
					RowsPerBank: cfg.DRAM.RowsPerBank,
					Threads:     len(mix.Specs),
					REFW:        cfg.Timing.REFW,
					REFI:        cfg.Timing.REFI,
					RC:          cfg.Timing.RC,
					Seed:        cfg.Seed + int64(ch)*0x9e3779b9,
				}, discardIssuer{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				sys.Memory().Channel(ch).AddActivateHook(m.OnActivate)
				shadows = append(shadows, m)
			}
			res := sys.Run()
			var shadow int64
			for _, m := range shadows {
				shadow += m.Actions()
			}
			if shadow != res.Actions {
				t.Errorf("an outside observer of the activation stream counts %d preventive actions, the run %d", shadow, res.Actions)
			}
		})
	}
}

// permuted moves the spec in slot i to slot perm[i]. A synthetic source
// seeds its stream from Spec.Seed and its slot (workload.NewGenerator);
// the seed is adjusted so each workload keeps the stream it had, and only
// its slot — its core, its address-space slice — changes.
func permuted(mix workload.Mix, perm []int) workload.Mix {
	out := workload.Mix{Name: mix.Name, Specs: make([]workload.Spec, len(mix.Specs))}
	for i, spec := range mix.Specs {
		spec.Seed ^= int64(i)<<17 ^ int64(perm[i])<<17
		out.Specs[perm[i]] = spec
	}
	return out
}

// TestThreadPermutationEquivariance: which core a workload runs on is not
// part of the experiment — moving it to another slot moves its row of the
// results with it and leaves the totals alone.
//
// The relation is exact only where slot order cannot leak in by design,
// and the mixes and the grid are cut to that: one memory-active workload
// beside idle threads (cores that issue in the same cycle are served in
// core-index order, so two active workloads trade a few percent of IPC
// and ACTs when they swap slots), exact runs (fast-forward replays each
// span core by core), and no PARA beyond one channel (one random stream
// per channel, and the channel hash folds in the slice's row bits).
func TestThreadPermutationEquivariance(t *testing.T) {
	idle := func(i int) workload.Spec {
		// One access per 10^10 instructions: never, at this scale.
		return workload.Spec{Name: fmt.Sprintf("idle%d", i), Class: workload.Low, MPKI: 1e-7, Locality: 1, FootprintLines: 1, Seed: int64(100 + i)}
	}
	perm := []int{1, 2, 3, 0}
	for _, tc := range []struct {
		name      string
		writeFrac float64
	}{
		{name: "read-only"},
		{name: "write-heavy", writeFrac: 0.25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			active := workload.ClassSpec(workload.High, 0, 11)
			active.WriteFrac = tc.writeFrac
			mix := workload.Mix{Name: tc.name, Specs: []workload.Spec{active, idle(1), idle(2), idle(3)}}
			for _, cfg := range metamorphicConfigs() {
				if cfg.Sampling.Enabled || cfg.Mechanism == "para" && cfg.Channels > 1 {
					continue // outside the relation, see above
				}
				cfg.BreakHammer = true
				t.Run(configLabel(cfg), func(t *testing.T) {
					t.Parallel()
					a, b := mustRun(t, cfg, mix), mustRun(t, cfg, permuted(mix, perm))
					for i, to := range perm {
						if a.IPC[i] != b.IPC[to] || a.Insts[i] != b.Insts[to] || a.RBMPKI[i] != b.RBMPKI[to] ||
							a.MC.DemandACTs[i] != b.MC.DemandACTs[to] ||
							a.BH.AttributedScore[i] != b.BH.AttributedScore[to] || a.BH.SuspectWindows[i] != b.BH.SuspectWindows[to] {
							t.Errorf("thread %d moved to slot %d and changed:\n before IPC %g insts %d RBMPKI %g ACTs %d score %g suspect windows %d\n after  IPC %g insts %d RBMPKI %g ACTs %d score %g suspect windows %d",
								i, to,
								a.IPC[i], a.Insts[i], a.RBMPKI[i], a.MC.DemandACTs[i], a.BH.AttributedScore[i], a.BH.SuspectWindows[i],
								b.IPC[to], b.Insts[to], b.RBMPKI[to], b.MC.DemandACTs[to], b.BH.AttributedScore[to], b.BH.SuspectWindows[to])
						}
					}
					if a.Cycles != b.Cycles || a.Actions != b.Actions || a.MC.TotalACTs != b.MC.TotalACTs {
						t.Errorf("totals changed: cycles %d -> %d, actions %d -> %d, ACTs %d -> %d",
							a.Cycles, b.Cycles, a.Actions, b.Actions, a.MC.TotalACTs, b.MC.TotalACTs)
					}
				})
			}
		})
	}
}

// TestThreadPermutationTolerance is the permutation relation over a general
// mix, where it cannot be exact: in HHMA every thread is memory-active, and
// cores that issue in the same cycle are served in core-index order, so a
// rotation of the slots trades some IPC between the threads and moves the
// preventive-action count. It bounds how much, over exact graphene and PRAC
// with BreakHammer on one and four channels, each bound 1.5× the worst
// drift measured on this grid:
//
//   - a thread's IPC: worst 9.05 % (PRAC, one channel) → 13.6 %;
//   - Result.Actions: worst 260 % (PRAC, one channel, 5 → 18 actions; the
//     other three configurations move by at most one action) → 390 %;
//   - a thread's RBMPKI: worst 3.40 % (graphene, one channel, the attacker)
//     → 5.1 %.
//
// IPC and actions at those bounds do not see a workload that loses its
// stream when it moves (permuted without the seed adjustment: IPC drifts
// 3.8–7.2 %, actions 0.6–60 %); its row-buffer misses do, at 6.3–8.1 %.
func TestThreadPermutationTolerance(t *testing.T) {
	const maxIPCDrift, maxActionsDrift, maxRBMPKIDrift = 0.136, 3.9, 0.051
	mix := mustMix(t, "HHMA")
	perm := []int{1, 2, 3, 0}
	for _, cfg := range metamorphicConfigs() {
		if cfg.Sampling.Enabled || cfg.Mechanism != "graphene" && cfg.Mechanism != "prac" {
			continue
		}
		cfg.BreakHammer = true
		t.Run(configLabel(cfg), func(t *testing.T) {
			t.Parallel()
			a, b := mustRun(t, cfg, mix), mustRun(t, cfg, permuted(mix, perm))
			for i, to := range perm {
				if d := relDrift(a.IPC[i], b.IPC[to]); d > maxIPCDrift {
					t.Errorf("thread %d moved to slot %d: IPC %g -> %g, drift %.4f over %.4f", i, to, a.IPC[i], b.IPC[to], d, maxIPCDrift)
				}
				if d := relDrift(a.RBMPKI[i], b.RBMPKI[to]); d > maxRBMPKIDrift {
					t.Errorf("thread %d moved to slot %d: RBMPKI %g -> %g, drift %.4f over %.4f", i, to, a.RBMPKI[i], b.RBMPKI[to], d, maxRBMPKIDrift)
				}
			}
			if d := relDrift(float64(a.Actions), float64(b.Actions)); d > maxActionsDrift {
				t.Errorf("actions %d -> %d, drift %.4f over %.4f", a.Actions, b.Actions, d, maxActionsDrift)
			}
		})
	}
}

// relDrift is |b-a| relative to a.
func relDrift(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}

// TestActionsMonotoneInNRH: a deterministic tracker configured against a
// lower RowHammer threshold acts at least as often — halving N_RH never
// lowers Result.Actions, with or without BreakHammer, on one channel and
// on four. PARA acts on a coin flip per activation, so its form of the
// relation is an expectation over seeds: the sum of Result.Actions over
// Config.Seed 1..8 never decreases.
func TestActionsMonotoneInNRH(t *testing.T) {
	mix := mustMix(t, "MLLA")
	nrhs := []int{2048, 1024, 512, 256, 128, 64}
	for _, mech := range []string{"graphene", "prac", "hydra", "aqua", "twice", "rfm", "para"} {
		for _, bh := range []bool{false, true} {
			for _, channels := range []int{1, 4} {
				cfg := FastConfig()
				cfg.TargetInsts = 60_000
				cfg.BHWindow = 100_000
				cfg.Mechanism, cfg.BreakHammer, cfg.Channels = mech, bh, channels
				seeds := []int64{cfg.Seed}
				if mech == "para" {
					seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
				}
				label := configLabel(cfg)
				if bh {
					label += "+bh"
				}
				t.Run(label, func(t *testing.T) {
					t.Parallel()
					actions := make([]int64, len(nrhs))
					for i, nrh := range nrhs {
						cfg.NRH = nrh
						for _, seed := range seeds {
							cfg.Seed = seed
							actions[i] += mustRun(t, cfg, mix).Actions
						}
					}
					for i := 1; i < len(nrhs); i++ {
						if actions[i] < actions[i-1] {
							t.Errorf("N_RH %d -> %d lowered preventive actions %d -> %d (over %v: %v)",
								nrhs[i-1], nrhs[i], actions[i-1], actions[i], nrhs, actions)
						}
					}
				})
			}
		}
	}
}
