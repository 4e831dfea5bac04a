package exp

import (
	"fmt"

	"breakhammer/internal/core"
	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// Section5 empirically exercises the paper's §5.2 multi-threaded attack
// analysis: a single attacker, a two-thread rotating attacker (the
// "circumventing suspect identification" strategy), and the same rotating
// attacker watched by the §5.2 system-software owner tracker that
// aggregates RowHammer-preventive scores per process. For each scenario
// it reports benign weighted speedup, per-thread suspect events, and
// whether the attacking *owner* tops the software-side cumulative scores.
func (r *Runner) Section5() (Table, error) {
	cfg := r.section5Config()

	// The scenarios instrument the system with activation hooks and an
	// owner tracker, so they cannot be stored as plain mix results; the
	// rendered table is cached instead (these are the longest single runs
	// in a default sweep).
	return r.cachedTable("sec5", cfg, func() (Table, error) { return r.section5(cfg) })
}

// section5Config derives the §5 scenario configuration from the base
// options. Coverage and the cached-table key both depend on it, so it
// must stay the single source of truth.
func (r *Runner) section5Config() sim.Config {
	cfg := r.opts.Base
	cfg.Mechanism = "graphene"
	cfg.NRH = r.opts.minNRH()
	cfg.BreakHammer = true
	// Benign medium-intensity applications keep the system busy long
	// enough for the rotation pattern to play out over several phases.
	cfg.TargetInsts *= 4
	return cfg
}

// section5 runs the scenarios; see Section5 for caching.
func (r *Runner) section5(cfg sim.Config) (Table, error) {
	t := Table{
		Title: "Section 5: multi-threaded attack scenarios (graphene+BH)",
		Note:  "rotation dodges per-thread scores; owner-level tracking (§5.2) still exposes the attacker",
	}
	t.Header = []string{"scenario", "benign WS", "suspect events (per thread)", "top owner = attacker"}

	seed := int64(1234)
	benignSpec := func(i int) workload.Spec { return workload.ClassSpec(workload.Medium, i, seed+int64(i)) }

	scenarios := []struct {
		name string
		mix  workload.Mix
		// ownerOf maps threads to owners for the software tracker;
		// attackOwner is the owner the attack threads belong to.
		ownerOf     []int
		attackOwner int
	}{
		{
			name: "single attacker",
			mix: workload.Mix{Name: "single", Specs: []workload.Spec{
				benignSpec(0), benignSpec(1), benignSpec(2), workload.AttackerSpec(3, seed),
			}},
			ownerOf:     []int{0, 1, 2, 3},
			attackOwner: 3,
		},
		{
			name: "rotating x2",
			mix: workload.Mix{Name: "rot2", Specs: []workload.Spec{
				benignSpec(0), benignSpec(1),
				workload.RotatingAttackerSpec(0, 2, 2000, seed),
				workload.RotatingAttackerSpec(1, 2, 2000, seed+1),
			}},
			ownerOf:     []int{0, 1, 9, 9}, // both rotating threads owned by process 9
			attackOwner: 9,
		},
	}

	for _, sc := range scenarios {
		sys, err := sim.NewSystem(cfg, sc.mix)
		if err != nil {
			return Table{}, err
		}
		// Software-side owner tracking via the §4 feedback interface,
		// sampled at every preventive action.
		tracker := core.NewOwnerTracker(len(sc.mix.Specs))
		for tid, owner := range sc.ownerOf {
			tracker.Assign(tid, owner)
		}
		bh := sys.BreakHammer()
		sys.Controller().AddActivateHook(func(bank, row, thread int, now int64) {
			// Sample the feedback registers on every activation so no
			// score mass is lost across throttling-window rotations.
			tracker.Observe(bh.Snapshot())
		})
		res := sys.Run()
		tracker.Observe(bh.Snapshot())

		alone := make([]float64, len(sc.mix.Specs))
		for i, spec := range sc.mix.Specs {
			if spec.Benign() {
				a, err := sim.AloneIPC(cfg, spec)
				if err != nil {
					return Table{}, err
				}
				alone[i] = a
			}
		}
		var ws float64
		for i := range alone {
			if alone[i] > 0 {
				ws += res.IPC[i] / alone[i]
			}
		}
		events := fmt.Sprint(bh.Stats().SuspectEvents)
		topOwner, _ := tracker.TopOwner()
		t.AddRow(sc.name, f3(ws), events, fmt.Sprint(topOwner == sc.attackOwner))
	}
	return t, nil
}
