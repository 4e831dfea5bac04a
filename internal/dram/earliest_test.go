package dram

import (
	"math/rand"
	"testing"
)

// TestEarliestIssueMatchesCanIssue pins EarliestIssue as the mirror of
// CanIssue over random legal command histories: with the device state
// frozen, for every command kind on every bank CanIssue is false on
// [now, EarliestIssue) and true at EarliestIssue; when the answer is Never
// CanIssue stays false out to a tREFW horizon. The memory controller
// sleeps on this bound, so an over-estimate would change simulations and
// an under-estimate would bring the polling back.
func TestEarliestIssueMatchesCanIssue(t *testing.T) {
	// A small topology so a short history touches every bank, with enough
	// ranks and groups for the same/different-group gaps to both occur and
	// more than four banks a rank so tFAW can bind.
	cfg := Config{Ranks: 2, BankGroups: 3, BanksPerGroup: 2, RowsPerBank: 64, ColumnsPerRow: 16, LineBytes: 64}
	kinds := []Command{CmdACT, CmdPRE, CmdRD, CmdWR, CmdREF, CmdRFM, CmdVRR, CmdMIG, CmdAUX}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tm := DDR5()
		if seed%2 == 0 {
			tm.FAW = 6 * tm.RRDS // DDR5's tFAW = 4*tRRD_S never binds on its own
		}
		d, err := NewDevice(cfg, tm)
		if err != nil {
			t.Fatal(err)
		}
		var finite, never int
		now := int64(0)
		for step := 0; step < 2500; step++ {
			// One random attempt per step; only legal commands issue, so the
			// history stays legal however the dice fall.
			cmd := kinds[rng.Intn(len(kinds))]
			addr := Addr{Bank: rng.Intn(cfg.TotalBanks()), Row: rng.Intn(4), Col: rng.Intn(cfg.ColumnsPerRow)}
			// Bias the dice toward what a controller does, so banks cycle
			// and every constraint gets to bind: column commands to the open
			// row, precharges of open banks, ACT bursts on closed ones.
			if row, open := d.OpenRow(addr.Bank); !open {
				if rng.Intn(4) != 0 {
					cmd = CmdACT
				}
			} else if dice := rng.Intn(8); dice < 4 {
				cmd, addr.Row = CmdRD+Command(dice&1), row
			} else if dice < 7 {
				cmd = CmdPRE
			}
			if d.CanIssue(cmd, addr, now) {
				d.Issue(cmd, addr, now)
			}
			now += int64(rng.Intn(4))
			if rng.Intn(64) == 0 {
				now += int64(rng.Intn(int(2 * tm.RFC))) // let long blocks expire now and then
			}
			if step%7 != 0 {
				continue
			}
			for _, k := range kinds {
				for bank := 0; bank < cfg.TotalBanks(); bank++ {
					for row := 0; row < 4; row++ {
						a := Addr{Bank: bank, Row: row}
						at := d.EarliestIssue(k, a)
						if at == Never {
							never++
							checkNever(t, d, k, a, now, tm.REFW)
							continue
						}
						finite++
						for c := now; c < at; c++ {
							if d.CanIssue(k, a, c) {
								t.Fatalf("seed %d step %d: %v to %v legal at %d, before EarliestIssue %d (now %d)", seed, step, k, a, c, at, now)
							}
						}
						if c := max(at, now); !d.CanIssue(k, a, c) {
							t.Fatalf("seed %d step %d: %v to %v illegal at %d, EarliestIssue said %d (now %d)", seed, step, k, a, c, at, now)
						}
					}
				}
			}
		}
		if finite == 0 || never == 0 {
			t.Fatalf("seed %d: vacuous history (%d finite answers, %d Never)", seed, finite, never)
		}
	}
}

// checkNever asserts cmd stays illegal from now to now+horizon: every
// cycle of the first stretch (longer than any single timing constraint),
// then at doubling distances.
func checkNever(t *testing.T, d *Device, cmd Command, a Addr, now, horizon int64) {
	t.Helper()
	const dense = 1024 // > tRFC, the longest block
	for c := now; c < now+dense; c++ {
		if d.CanIssue(cmd, a, c) {
			t.Fatalf("%v to %v legal at %d, EarliestIssue said Never (now %d)", cmd, a, c, now)
		}
	}
	for gap := int64(dense); gap <= horizon; gap *= 2 {
		if d.CanIssue(cmd, a, now+gap) {
			t.Fatalf("%v to %v legal at %d, EarliestIssue said Never (now %d)", cmd, a, now+gap, now)
		}
	}
	if d.CanIssue(cmd, a, now+horizon) {
		t.Fatalf("%v to %v legal at the tREFW horizon, EarliestIssue said Never", cmd, a)
	}
}

// TestEarliestIssueOutOfRangeBank mirrors CanIssue's bounds check.
func TestEarliestIssueOutOfRangeBank(t *testing.T) {
	d := newTestDevice(t)
	for _, bank := range []int{-1, d.Config().TotalBanks()} {
		if at := d.EarliestIssue(CmdACT, Addr{Bank: bank}); at != Never {
			t.Errorf("EarliestIssue(ACT, bank %d) = %d, want Never", bank, at)
		}
	}
}
