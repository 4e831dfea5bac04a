package exp

import (
	"fmt"

	"breakhammer/internal/workload"
)

// section5Scenario is one of §5.2's multi-threaded attack scenarios: the
// study point that simulates it and the thread-to-owner map the system
// software would hold.
type section5Scenario struct {
	study, name string
	mix         workload.Mix
	ownerOf     []int // thread -> owner (process)
	attackOwner int   // the owner the attack threads belong to
}

// section5Scenarios returns a single attacker and a two-thread rotating
// attacker (the "circumventing suspect identification" strategy), each
// beside benign medium-intensity applications.
func section5Scenarios() []section5Scenario {
	seed := int64(1234)
	benignSpec := func(i int) workload.Spec { return workload.ClassSpec(workload.Medium, i, seed+int64(i)) }
	return []section5Scenario{
		{
			study: StudySingleAttacker, name: "single attacker",
			mix: workload.Mix{Name: "single", Specs: []workload.Spec{
				benignSpec(0), benignSpec(1), benignSpec(2), workload.AttackerSpec(3, seed),
			}},
			ownerOf:     []int{0, 1, 2, 3},
			attackOwner: 3,
		},
		{
			study: StudyRotatingAttacker, name: "rotating x2",
			mix: workload.Mix{Name: "rot2", Specs: []workload.Spec{
				benignSpec(0), benignSpec(1),
				workload.RotatingAttackerSpec(0, 2, 2000, seed),
				workload.RotatingAttackerSpec(1, 2, 2000, seed+1),
			}},
			ownerOf:     []int{0, 1, 9, 9}, // both rotating threads owned by process 9
			attackOwner: 9,
		},
	}
}

// Section5 empirically exercises the paper's §5.2 multi-threaded attack
// analysis under graphene+BH at the lowest N_RH. For each scenario it
// reports benign weighted speedup, per-thread suspect events, and whether
// the attacking *owner* tops the cumulative RowHammer-preventive scores
// once system software sums them per process — the §5.2 owner-level
// accounting a rotating attacker cannot dodge. BreakHammer's own ledger
// (Stats.AttributedScore) is that per-thread cumulative score, so the
// scenarios are plain points and the sum is taken here.
func (r *Runner) Section5() (Table, error) {
	t := Table{
		Title: "Section 5: multi-threaded attack scenarios (graphene+BH)",
		Note:  "rotation dodges per-thread scores; owner-level tracking (§5.2) still exposes the attacker",
	}
	t.Header = []string{"scenario", "benign WS", "suspect events (per thread)", "top owner = attacker"}
	for _, sc := range section5Scenarios() {
		rs, err := r.point(Point{Mech: "graphene", NRH: r.opts.minNRH(), BH: true, Attack: true, Study: sc.study})
		if err != nil {
			return Table{}, err
		}
		bh := rs[0].BH
		if bh == nil {
			continue // a recording runner's zero-valued result
		}
		byOwner := map[int]float64{}
		for thread, score := range bh.AttributedScore {
			byOwner[sc.ownerOf[thread]] += score
		}
		top := true
		for owner, score := range byOwner {
			if owner != sc.attackOwner && score >= byOwner[sc.attackOwner] {
				top = false
			}
		}
		t.AddRow(sc.name, f3(rs[0].WS), fmt.Sprint(bh.SuspectEvents), fmt.Sprint(top))
	}
	return t, nil
}
