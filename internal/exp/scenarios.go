package exp

import (
	"fmt"

	"breakhammer/internal/sim"
)

// Scenarios builds the adversarial security/performance frontier: the
// (strategy x defense) grid at the sweep's lowest (most vulnerable)
// RowHammer threshold — preventive-action dynamics are liveliest there,
// and the decoy's prime-to-threshold cost stays affordable within a
// scaled-down run. Each row reports how the benign victims fared
// (weighted speedup, unfairness), what the defense spent (preventive
// actions), and where BreakHammer's suspicion landed (suspect windows and
// the cumulative blame share on benign threads) — the frontier the
// adaptive strategies try to bend: the probe trades activation rate for a
// clean record, the decoy trades its own damage for benign blame.
func (r *Runner) Scenarios() (Table, error) {
	t := Table{
		Title: fmt.Sprintf("Adversarial scenarios: strategy x defense frontier (NRH=%d)", r.opts.minNRH()),
		Note:  "WS/unfairness over benign victims; suspect windows and blame share from BreakHammer's ledger (- without BH)",
	}
	t.Header = []string{"strategy", "defense", "benign WS", "unfairness",
		"prev. actions", "attacker suspect wins", "benign suspect wins", "benign blame share"}
	for _, strat := range r.opts.Strategies {
		for _, d := range r.opts.Defenses {
			p := Point{Mech: d.Mechanism, NRH: r.opts.minNRH(), BH: d.BH, Scenario: strat}
			rs, err := r.point(p)
			if err != nil {
				return Table{}, err
			}
			res := rs[0]
			atkWins, benWins, blame := scenarioBHCells(res)
			t.AddRow(strat, d.String(), f3(res.WS), f3(res.Unfairness),
				fmt.Sprint(res.Actions), atkWins, benWins, blame)
		}
	}
	return t, nil
}

// scenarioBHCells summarises a scenario run's BreakHammer stats: suspect
// windows split attacker/benign and the benign share of the cumulative
// attributed score. Runs without BreakHammer have no ledger and render
// as "-".
func scenarioBHCells(res sim.MixResult) (atkWins, benWins, blameShare string) {
	if res.BH == nil {
		return "-", "-", "-"
	}
	var atk, ben int64
	var benScore, total float64
	for i, benign := range res.Benign {
		if benign {
			ben += res.BH.SuspectWindows[i]
			benScore += res.BH.AttributedScore[i]
		} else {
			atk += res.BH.SuspectWindows[i]
		}
		total += res.BH.AttributedScore[i]
	}
	share := 0.0
	if total > 0 {
		share = benScore / total
	}
	return fmt.Sprint(atk), fmt.Sprint(ben), f3(share)
}
