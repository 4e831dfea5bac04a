package dram

import (
	"math/rand"
	"testing"
)

// The histories below run on a small topology so a short one touches every
// bank, with enough ranks and groups for the same/different-group gaps to
// both occur and more than four banks a rank so tFAW can bind.
var (
	earliestCfg   = Config{Ranks: 2, BankGroups: 3, BanksPerGroup: 2, RowsPerBank: 64, ColumnsPerRow: 16, LineBytes: 64}
	earliestKinds = []Command{CmdACT, CmdPRE, CmdRD, CmdWR, CmdREF, CmdRFM, CmdVRR, CmdMIG, CmdAUX}
)

const earliestRows = 4 // rows a history touches, and a probe asks about, per bank

// attempt is one step of a command history: try cmd at the current cycle —
// it issues only if legal, so the history stays legal however the dice (or
// the fuzzer's bytes) fall — then let dt cycles pass.
type attempt struct {
	cmd  Command
	addr Addr
	dt   int64
}

// earliestDevice builds the history device. Bit 0 of variant stretches tFAW
// (DDR5's tFAW = 4*tRRD_S never binds on its own), bit 1 picks DDR4.
func earliestDevice(t testing.TB, variant byte) *Device {
	tm := DDR5()
	if variant&2 != 0 {
		tm = DDR4()
	}
	if variant&1 != 0 {
		tm.FAW = 6 * tm.RRDS
	}
	d, err := NewDevice(earliestCfg, tm)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// step makes the attempt on d at cycle now and returns the next cycle.
func (a attempt) step(d *Device, now int64) int64 {
	if d.CanIssue(a.cmd, a.addr, now) {
		d.Issue(a.cmd, a.addr, now)
	}
	return now + a.dt
}

// seedHistory rolls the 2500-attempt history of one rng seed.
func seedHistory(t testing.TB, seed int64) (variant byte, h []attempt) {
	rng := rand.New(rand.NewSource(seed))
	if seed%2 == 0 {
		variant = 1
	}
	d := earliestDevice(t, variant)
	tm := d.Timing()
	now := int64(0)
	for step := 0; step < 2500; step++ {
		cmd := earliestKinds[rng.Intn(len(earliestKinds))]
		addr := Addr{Bank: rng.Intn(earliestCfg.TotalBanks()), Row: rng.Intn(earliestRows), Col: rng.Intn(earliestCfg.ColumnsPerRow)}
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
		a := attempt{cmd: cmd, addr: addr, dt: int64(rng.Intn(4))}
		if rng.Intn(64) == 0 {
			a.dt += int64(rng.Intn(int(2 * tm.RFC))) // let long blocks expire now and then
		}
		h = append(h, a)
		now = a.step(d, now)
	}
	return variant, h
}

// replayHistory issues h through a fresh device and, after every seventh
// attempt, holds EarliestIssue to the frozen reference (reference_test.go)
// with the device state frozen: for every command kind on every bank
// refCanIssue is false on [now, EarliestIssue) and true at EarliestIssue;
// when the answer is Never refCanIssue stays false out to a tREFW horizon.
// It returns how many answers of each sort it checked; dense is checkNever's.
func replayHistory(t *testing.T, variant byte, h []attempt, dense int64) (finite, never int) {
	d := earliestDevice(t, variant)
	horizon := d.Timing().REFW
	now := int64(0)
	for step, a := range h {
		now = a.step(d, now)
		if step%7 != 0 {
			continue
		}
		for _, k := range earliestKinds {
			for bank := 0; bank < earliestCfg.TotalBanks(); bank++ {
				for row := 0; row < earliestRows; row++ {
					a := Addr{Bank: bank, Row: row}
					at := d.EarliestIssue(k, a)
					if at == Never {
						never++
						checkNever(t, d, k, a, now, dense, horizon)
						continue
					}
					finite++
					for c := now; c < at; c++ {
						if d.refCanIssue(k, a, c) {
							t.Fatalf("step %d: %v to %v legal at %d, before EarliestIssue %d (now %d)", step, k, a, c, at, now)
						}
					}
					if c := max(at, now); !d.refCanIssue(k, a, c) {
						t.Fatalf("step %d: %v to %v illegal at %d, EarliestIssue said %d (now %d)", step, k, a, c, at, now)
					}
				}
			}
		}
	}
	return finite, never
}

// neverDense is the stretch checkNever walks cycle by cycle in the test:
// longer than tRFC, the longest block, so than any single timing constraint.
const neverDense = 1024

// checkNever asserts cmd stays illegal from now to now+horizon: every
// cycle of the first dense ones, then at doubling distances.
func checkNever(t *testing.T, d *Device, cmd Command, a Addr, now, dense, horizon int64) {
	t.Helper()
	for c := now; c < now+dense; c++ {
		if d.refCanIssue(cmd, a, c) {
			t.Fatalf("%v to %v legal at %d, EarliestIssue said Never (now %d)", cmd, a, c, now)
		}
	}
	for gap := dense; gap <= horizon; gap *= 2 {
		if d.refCanIssue(cmd, a, now+gap) {
			t.Fatalf("%v to %v legal at %d, EarliestIssue said Never (now %d)", cmd, a, now+gap, now)
		}
	}
	if d.refCanIssue(cmd, a, now+horizon) {
		t.Fatalf("%v to %v legal at the tREFW horizon, EarliestIssue said Never", cmd, a)
	}
}

// TestEarliestIssueMatchesReference pins EarliestIssue — the only reader of
// the timing table, CanIssue being "EarliestIssue <= now" — against the
// frozen boolean statement of the same rules over random legal command
// histories. The memory controller sleeps on this bound, so an
// over-estimate would change simulations and an under-estimate would let
// an illegal command through Issue's guard.
func TestEarliestIssueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		variant, h := seedHistory(t, seed)
		finite, never := replayHistory(t, variant, h, neverDense)
		if finite == 0 || never == 0 {
			t.Fatalf("seed %d: vacuous history (%d finite answers, %d Never)", seed, finite, never)
		}
		t.Logf("seed %d: %d finite answers, %d Never", seed, finite, never)
	}
}

// Fuzz inputs are one variant byte, then four bytes an attempt: command
// kind, bank*earliestRows+row, and a little-endian 12-bit time step (2*tRFC
// fits, so a rolled history renders exactly).
const fuzzStepBytes = 4

func encodeHistory(variant byte, h []attempt) []byte {
	data := []byte{variant}
	for _, a := range h {
		data = append(data, byte(a.cmd), byte(a.addr.Bank*earliestRows+a.addr.Row), byte(a.dt), byte(a.dt>>8))
	}
	return data
}

func decodeHistory(data []byte) (variant byte, h []attempt) {
	if len(data) == 0 {
		return 0, nil
	}
	for s := data[1:]; len(s) >= fuzzStepBytes; s = s[fuzzStepBytes:] {
		slot := int(s[1]) % (earliestCfg.TotalBanks() * earliestRows)
		h = append(h, attempt{
			cmd:  earliestKinds[int(s[0])%len(earliestKinds)],
			addr: Addr{Bank: slot / earliestRows, Row: slot % earliestRows},
			dt:   int64(s[2]) | int64(s[3]&0x0f)<<8,
		})
	}
	return data[0], h
}

// FuzzEarliestIssue is TestEarliestIssueMatchesReference with the fuzzer
// rolling the dice. Its seed corpus is the six rng histories rendered to
// bytes, in windows of 250 attempts each replayed from a fresh device, and
// plain `go test` replays all of it. A Never is walked cycle by cycle for 16
// cycles here, not the test's 1024 (every clause of the reference is "now <
// some timestamp", so the doubling probes out to tREFW see what the dense
// walk would): the two together make an execution ~5 ms instead of ~500,
// so a 30 s budget is thousands of mutations, not dozens.
func FuzzEarliestIssue(f *testing.F) {
	const window = 250
	for seed := int64(1); seed <= 6; seed++ {
		variant, h := seedHistory(f, seed)
		for ; len(h) > 0; h = h[min(window, len(h)):] {
			f.Add(encodeHistory(variant, h[:min(window, len(h))]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		variant, h := decodeHistory(data)
		if len(h) > 2*window {
			t.Skip("the mutator grew the input; nothing a shorter history cannot reach")
		}
		replayHistory(t, variant, h, 16)
	})
}

// TestFuzzEncodingRoundTrips keeps the seed corpus honest: a rolled history
// survives the byte encoding unchanged (up to the column, which no timing
// rule reads).
func TestFuzzEncodingRoundTrips(t *testing.T) {
	variant, h := seedHistory(t, 2)
	gotVariant, got := decodeHistory(encodeHistory(variant, h))
	if gotVariant != variant || len(got) != len(h) {
		t.Fatalf("decoded variant %d, %d attempts; want %d, %d", gotVariant, len(got), variant, len(h))
	}
	for i := range h {
		h[i].addr.Col = 0
		if got[i] != h[i] {
			t.Fatalf("attempt %d decoded as %+v, want %+v", i, got[i], h[i])
		}
	}
}

// TestSameGroupGapSurvivesOtherGroup: a column command to another bank
// group does not hide the long same-group gap of an earlier one. After WR
// g0 @100 and WR g1 @108, RD g0 waits for tWTR_L after the g0 write (170),
// not just tWTR_S after the g1 write (160).
func TestSameGroupGapSurvivesOtherGroup(t *testing.T) {
	d := newTestDevice(t)
	tm := d.Timing()
	g0, g1 := Addr{Bank: 0, Row: 7}, Addr{Bank: d.Config().BanksPerGroup, Row: 7}
	d.Issue(CmdACT, g0, 0)
	d.Issue(CmdACT, g1, 12)
	d.Issue(CmdWR, g0, 100)
	d.Issue(CmdWR, g1, 108)
	if got, want := d.EarliestIssue(CmdRD, g0), 100+tm.CWL+tm.BL+tm.WTRL; got != want {
		t.Errorf("RD g0 earliest at %d, want %d (tWTR_L after the g0 write)", got, want)
	}
}

// TestEarliestIssueOutOfRangeBank: no bank, no cycle.
func TestEarliestIssueOutOfRangeBank(t *testing.T) {
	d := newTestDevice(t)
	for _, bank := range []int{-1, d.Config().TotalBanks()} {
		if at := d.EarliestIssue(CmdACT, Addr{Bank: bank}); at != Never {
			t.Errorf("EarliestIssue(ACT, bank %d) = %d, want Never", bank, at)
		}
		if d.CanIssue(CmdACT, Addr{Bank: bank}, 1<<40) {
			t.Errorf("CanIssue(ACT, bank %d) = true", bank)
		}
	}
}
