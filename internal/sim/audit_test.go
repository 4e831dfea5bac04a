package sim

// The stream audit: one of the two judges dram.Device.EarliestIssue answers
// to (the other is internal/dram's frozen reference). It re-derives DRAM
// protocol legality from a channel's command stream alone — what
// dram.Device.SetIssueHook reports, plus the dram.Config and dram.Timing the
// device was built with — and never asks the device or the controller
// anything. It keeps its own history per bank, bank group, rank and channel
// and checks every constraint *pairwise*: against the most recent earlier
// event of each kind in each scope, not against the device's
// last-command-only state. So it sees a device that forgets a clause, a
// scheduler that slips a command past the device, and rules the device
// never stated (it convicted the device's old last-write-only tWTR_L; see
// TestAuditKnownLaxWTRL and the second tWTR_L row of
// TestAuditCheckerCatches).
//
// Fields of dram.Timing without a rule here: TCK (the unit, not a
// constraint), REFW (the window N_RH is counted over — the RowHammer-safety
// oracle's subject, ROADMAP item 2, not a command-to-command gap) and RFCsb
// (same-bank refresh, a command the device does not model).

import (
	"fmt"
	"strings"
	"testing"

	"breakhammer/internal/dram"
	"breakhammer/internal/mitigation"
	"breakhammer/internal/sampling"
)

// auditEvent is something a command leaves behind in a scope's history.
type auditEvent int

const (
	evACT  auditEvent = iota
	evACT4            // the fourth most recent ACT (rank scope: tFAW)
	evPRE             // of an open bank; a PRE to a precharged bank is a no-op
	evRD
	evWR
	evWRend // end of a write's data burst
	evBusEnd
	evREF
	evRFM
	evVRR
	evAUX
	evMIG
	numAuditEvents
)

// auditScope is where a rule looks for the earlier event.
type auditScope int

const (
	scBank auditScope = iota
	scGroup
	scRank
	scChannel
)

const auditNever = int64(-1 << 40)

// auditHistory is the cycle of the most recent event of each kind.
type auditHistory [numAuditEvents]int64

func cmds(cs ...dram.Command) (mask uint) {
	for _, c := range cs {
		mask |= 1 << uint(c)
	}
	return mask
}

var (
	anyCmd     = cmds(dram.CmdACT, dram.CmdPRE, dram.CmdRD, dram.CmdWR, dram.CmdREF, dram.CmdRFM, dram.CmdVRR, dram.CmdMIG, dram.CmdAUX)
	preventive = cmds(dram.CmdRFM, dram.CmdVRR, dram.CmdMIG, dram.CmdAUX)
)

// auditRule is one pairwise constraint: a command in later issues no sooner
// than gap cycles after the scope's most recent event. A bank-scope rule
// that names REF applies to every bank of the refreshed rank.
type auditRule struct {
	name  string
	later uint
	scope auditScope
	event auditEvent
	gap   func(t dram.Timing, c dram.Config) int64
}

var auditRules = []auditRule{
	// Same bank.
	{"tRCD", cmds(dram.CmdRD, dram.CmdWR), scBank, evACT, func(t dram.Timing, _ dram.Config) int64 { return t.RCD }},
	{"tRAS", cmds(dram.CmdPRE), scBank, evACT, func(t dram.Timing, _ dram.Config) int64 { return t.RAS }},
	{"tRC", cmds(dram.CmdACT), scBank, evACT, func(t dram.Timing, _ dram.Config) int64 { return t.RC }},
	{"tRP", cmds(dram.CmdACT, dram.CmdREF) | preventive, scBank, evPRE, func(t dram.Timing, _ dram.Config) int64 { return t.RP }},
	{"tRTP", cmds(dram.CmdPRE), scBank, evRD, func(t dram.Timing, _ dram.Config) int64 { return t.RTP }},
	{"tWR", cmds(dram.CmdPRE), scBank, evWRend, func(t dram.Timing, _ dram.Config) int64 { return t.WR }},
	{"tRFM", anyCmd, scBank, evRFM, func(t dram.Timing, _ dram.Config) int64 { return t.RFM }},
	{"VRR-tRC", anyCmd, scBank, evVRR, func(t dram.Timing, _ dram.Config) int64 { return t.RC }},
	{"AUX-tRC", anyCmd, scBank, evAUX, func(t dram.Timing, _ dram.Config) int64 { return t.RC }},
	{"MIG-block", anyCmd, scBank, evMIG, func(t dram.Timing, c dram.Config) int64 { return 2*t.RC + int64(c.ColumnsPerRow)*t.CCDL }},
	// Same bank group.
	{"tRRD_L", cmds(dram.CmdACT), scGroup, evACT, func(t dram.Timing, _ dram.Config) int64 { return t.RRDL }},
	{"tCCD_L-RD", cmds(dram.CmdRD), scGroup, evRD, func(t dram.Timing, _ dram.Config) int64 { return t.CCDL }},
	{"tCCD_L-WR", cmds(dram.CmdWR), scGroup, evWR, func(t dram.Timing, _ dram.Config) int64 { return t.CCDL }},
	{"tWTR_L", cmds(dram.CmdRD), scGroup, evWRend, func(t dram.Timing, _ dram.Config) int64 { return t.WTRL }},
	// Rank.
	{"tRRD_S", cmds(dram.CmdACT), scRank, evACT, func(t dram.Timing, _ dram.Config) int64 { return t.RRDS }},
	{"tFAW", cmds(dram.CmdACT), scRank, evACT4, func(t dram.Timing, _ dram.Config) int64 { return t.FAW }},
	{"tRFC", anyCmd, scRank, evREF, func(t dram.Timing, _ dram.Config) int64 { return t.RFC }},
	// Channel: the column commands share one data bus.
	{"tCCD_S-RD", cmds(dram.CmdRD), scChannel, evRD, func(t dram.Timing, _ dram.Config) int64 { return t.CCDS }},
	{"tCCD_S-WR", cmds(dram.CmdWR), scChannel, evWR, func(t dram.Timing, _ dram.Config) int64 { return t.CCDS }},
	{"tWTR_S", cmds(dram.CmdRD), scChannel, evWRend, func(t dram.Timing, _ dram.Config) int64 { return t.WTRS }},
	{"tRTW", cmds(dram.CmdWR), scChannel, evRD, func(t dram.Timing, _ dram.Config) int64 { return t.RTW }},
	{"bus-RD", cmds(dram.CmdRD), scChannel, evBusEnd, func(t dram.Timing, _ dram.Config) int64 { return -t.CL }},
	{"bus-WR", cmds(dram.CmdWR), scChannel, evBusEnd, func(t dram.Timing, _ dram.Config) int64 { return -t.CWL }},
}

// The rules that are not a gap after one earlier event.
const (
	ruleOpenRow    = "column-to-open-row"
	ruleClosedBank = "needs-precharged-bank"
	ruleCmdBus     = "one-command-per-cycle"
	ruleCadence    = "refresh-cadence"
)

// streamChecker audits one channel's command stream.
type streamChecker struct {
	cfg dram.Config
	tm  dram.Timing

	banks   []auditHistory
	groups  []auditHistory
	ranks   []auditHistory
	channel auditHistory

	openRow []int      // per bank; -1 = precharged
	acts    [][4]int64 // per rank: the last four ACTs, a ring indexed by nActs%4
	nActs   []int
	lastCmd int64
	started int64 // the stream's first cycle: where a never-refreshed rank's cadence starts

	// excused reports how many cycles of [from, to) the detailed model did
	// not simulate (a sampled run's fast-forward phases, whose refreshes
	// are functional); nil for an exact run.
	excused func(from, to int64) int64

	commands   int
	checked    map[string]int // rule -> evaluations that had an earlier event to compare with
	violations map[string]int
	total      int      // sum of violations
	first      []string // the first few violations, rendered
}

func newStreamChecker(cfg dram.Config, tm dram.Timing) *streamChecker {
	k := &streamChecker{
		cfg: cfg, tm: tm,
		banks:      make([]auditHistory, cfg.TotalBanks()),
		groups:     make([]auditHistory, cfg.Ranks*cfg.BankGroups),
		ranks:      make([]auditHistory, cfg.Ranks),
		openRow:    make([]int, cfg.TotalBanks()),
		acts:       make([][4]int64, cfg.Ranks),
		nActs:      make([]int, cfg.Ranks),
		lastCmd:    auditNever,
		checked:    map[string]int{},
		violations: map[string]int{},
	}
	blank := auditHistory{}
	for e := range blank {
		blank[e] = auditNever
	}
	for _, hs := range [][]auditHistory{k.banks, k.groups, k.ranks} {
		for i := range hs {
			hs[i] = blank
		}
	}
	k.channel = blank
	for b := range k.openRow {
		k.openRow[b] = -1
	}
	for r := range k.acts {
		k.acts[r] = [4]int64{auditNever, auditNever, auditNever, auditNever}
	}
	return k
}

func (k *streamChecker) fail(rule string, cmd dram.Command, a dram.Addr, now int64, format string, args ...any) {
	k.violations[rule]++
	k.total++
	if len(k.first) < 5 {
		k.first = append(k.first, fmt.Sprintf("%s: %v bank %d row %d at %d: %s", rule, cmd, a.Bank, a.Row, now, fmt.Sprintf(format, args...)))
	}
}

// gaps applies the gap rules of one scope instance to a command.
func (k *streamChecker) gaps(cmd dram.Command, a dram.Addr, now int64, scope auditScope, h *auditHistory) {
	for i := range auditRules {
		r := &auditRules[i]
		if r.scope != scope || r.later&(1<<uint(cmd)) == 0 || h[r.event] == auditNever {
			continue
		}
		k.checked[r.name]++
		if earliest := h[r.event] + r.gap(k.tm, k.cfg); now < earliest {
			k.fail(r.name, cmd, a, now, "earlier event at %d, legal from %d", h[r.event], earliest)
		}
	}
}

// observe is the SetIssueHook callback.
func (k *streamChecker) observe(cmd dram.Command, a dram.Addr, now int64) {
	if k.commands == 0 {
		k.started = now
	}
	k.commands++
	k.checked[ruleCmdBus]++
	if now <= k.lastCmd {
		k.fail(ruleCmdBus, cmd, a, now, "previous command at %d", k.lastCmd)
	}
	k.lastCmd = now

	rank, group, _ := k.cfg.BankOf(a.Bank)
	gkey := rank*k.cfg.BankGroups + group
	bank, grp, rnk := &k.banks[a.Bank], &k.groups[gkey], &k.ranks[rank]
	base, perRank := rank*k.cfg.BanksPerRank(), k.cfg.BanksPerRank()

	// Row-buffer state rules.
	switch cmd {
	case dram.CmdRD, dram.CmdWR:
		k.checked[ruleOpenRow]++
		if k.openRow[a.Bank] != a.Row {
			k.fail(ruleOpenRow, cmd, a, now, "open row is %d", k.openRow[a.Bank])
		}
	case dram.CmdACT, dram.CmdRFM, dram.CmdVRR, dram.CmdAUX, dram.CmdMIG:
		k.checked[ruleClosedBank]++
		if k.openRow[a.Bank] != -1 {
			k.fail(ruleClosedBank, cmd, a, now, "row %d is open", k.openRow[a.Bank])
		}
	case dram.CmdREF:
		k.checked[ruleClosedBank]++
		for b := base; b < base+perRank; b++ {
			if k.openRow[b] != -1 {
				k.fail(ruleClosedBank, cmd, a, now, "bank %d has row %d open", b, k.openRow[b])
			}
		}
	}

	// Gap rules, scope by scope.
	if cmd == dram.CmdREF {
		for b := base; b < base+perRank; b++ {
			k.gaps(cmd, a, now, scBank, &k.banks[b])
		}
	} else {
		k.gaps(cmd, a, now, scBank, bank)
		k.gaps(cmd, a, now, scGroup, grp)
		k.gaps(cmd, a, now, scChannel, &k.channel)
	}
	k.gaps(cmd, a, now, scRank, rnk)

	// Record what the command leaves behind.
	mark := func(e auditEvent, at int64, hs ...*auditHistory) {
		for _, h := range hs {
			h[e] = at
		}
	}
	switch cmd {
	case dram.CmdACT:
		k.openRow[a.Bank] = a.Row
		mark(evACT, now, bank, grp, rnk)
		n := k.nActs[rank]
		k.acts[rank][n%4] = now
		rnk[evACT4] = k.acts[rank][(n+1)%4] // with this one, the fourth most recent
		k.nActs[rank]++
	case dram.CmdPRE:
		if k.openRow[a.Bank] != -1 {
			k.openRow[a.Bank] = -1
			mark(evPRE, now, bank)
		}
	case dram.CmdRD:
		mark(evRD, now, bank, grp, &k.channel)
		mark(evBusEnd, now+k.tm.CL+k.tm.BL, &k.channel)
	case dram.CmdWR:
		end := now + k.tm.CWL + k.tm.BL
		mark(evWR, now, grp, &k.channel)
		mark(evWRend, end, bank, grp, &k.channel)
		mark(evBusEnd, end, &k.channel)
	case dram.CmdREF:
		k.checked[ruleCadence]++
		k.cadence(a, rank, now)
		mark(evREF, now, rnk)
	case dram.CmdRFM:
		mark(evRFM, now, bank)
	case dram.CmdVRR:
		mark(evVRR, now, bank)
	case dram.CmdAUX:
		mark(evAUX, now, bank)
	case dram.CmdMIG:
		mark(evMIG, now, bank)
	}
}

// cadence: no rank goes longer than 2*tREFI of simulated time unrefreshed,
// measured at its next REF or at the end of the stream (now).
func (k *streamChecker) cadence(a dram.Addr, rank int, now int64) {
	from := k.ranks[rank][evREF]
	if from == auditNever {
		from = k.started
	}
	gap := now - from
	if k.excused != nil {
		gap -= k.excused(from, now)
	}
	if gap > 2*k.tm.REFI {
		k.fail(ruleCadence, dram.CmdREF, a, now, "%d cycles since the rank's last refresh at %d, 2*tREFI is %d", gap, from, 2*k.tm.REFI)
	}
}

// finish closes the stream at cycle end: a rank starved of refresh to the
// end of the run leaves no late REF for observe to measure.
func (k *streamChecker) finish(end int64) {
	if k.commands == 0 {
		return
	}
	for rank := range k.ranks {
		k.cadence(dram.Addr{Bank: rank * k.cfg.BanksPerRank()}, rank, end)
	}
}

func auditConfig() Config {
	c := tinyConfig()
	c.TargetInsts = 60_000 // short: the audit is O(trace length)
	return c
}

// auditRow is one simulation whose every channel is audited.
type auditRow struct {
	name string
	cfg  Config
	mix  string
}

// auditRows is {none, every mitigation, blockhammer} x {-, +BreakHammer} x
// {1, 4} channels on one attack mix, then the rows that carry what the
// matrix does not: a write-heavy benign mix and a refresh-only quiet one
// (the deleted TestAuditFAWWindow's HHHA and TestAuditRefreshCadence's
// 200 K-instruction LLLL), and a sampled run, whose commands issue only in
// detailed spans and whose controllers are skipped over the rest.
func auditRows() []auditRow {
	var rows []auditRow
	mechs := append(append([]string{"none"}, mitigation.Names()...), "blockhammer")
	for _, channels := range []int{1, 4} {
		for _, mech := range mechs {
			for _, bh := range []bool{false, true} {
				if mech == "blockhammer" && bh {
					continue // not a configuration (§8.3)
				}
				cfg := auditConfig()
				cfg.Mechanism, cfg.NRH, cfg.BreakHammer, cfg.Channels = mech, 128, bh, channels
				name := fmt.Sprintf("%s-%dch", mech, channels)
				if bh {
					name = fmt.Sprintf("%s+bh-%dch", mech, channels)
				}
				rows = append(rows, auditRow{name, cfg, "MLLA"})
			}
		}
	}
	heavy := auditConfig()
	rows = append(rows, auditRow{"none-heavy-1ch", heavy, "HHHA"})
	quiet := auditConfig()
	quiet.TargetInsts = 200_000
	rows = append(rows, auditRow{"none-quiet-1ch", quiet, "LLLL"})
	sampled := sampledTestConfig(2)
	sampled.NRH = 128
	rows = append(rows, auditRow{"sampled-graphene+bh-2ch", sampled, "HHMA"})
	return rows
}

// excusedBy counts the fast-forward-phase cycles of [from, to) under p.
func excusedBy(p sampling.Params) func(from, to int64) int64 {
	p = p.Normalized()
	return func(from, to int64) (n int64) {
		for c := from; c < to; {
			ph, next := p.PhaseAt(c)
			next = min(next, to)
			if ph == sampling.PhaseFF {
				n += next - c
			}
			c = next
		}
		return n
	}
}

// TestAuditCommandStream runs every row with a checker on every channel:
// no rule may fire, and over the whole matrix every rule must have had an
// earlier event to compare with (so every command kind was seen).
func TestAuditCommandStream(t *testing.T) {
	checked := map[string]int{}
	commands := 0
	for _, row := range auditRows() {
		t.Run(row.name, func(t *testing.T) {
			sys, err := NewSystem(row.cfg, mustMix(t, row.mix))
			if err != nil {
				t.Fatal(err)
			}
			checkers := make([]*streamChecker, sys.Memory().Channels())
			for ch := range checkers {
				dev := sys.Memory().Device(ch)
				k := newStreamChecker(dev.Config(), dev.Timing())
				if row.cfg.Sampling.Enabled {
					k.excused = excusedBy(row.cfg.Sampling)
				}
				dev.SetIssueHook(k.observe)
				checkers[ch] = k
			}
			res := sys.Run()
			for ch, k := range checkers {
				k.finish(res.Cycles)
				if k.commands == 0 {
					t.Errorf("channel %d: no commands", ch)
				}
				if n := k.total; n > 0 {
					t.Errorf("channel %d: %d violation(s) in %d commands: %v\nfirst:\n  %s", ch, n, k.commands, k.violations, strings.Join(k.first, "\n  "))
				}
				for rule, n := range k.checked {
					checked[rule] += n
				}
				commands += k.commands
			}
		})
	}
	rules := []string{ruleOpenRow, ruleClosedBank, ruleCmdBus, ruleCadence}
	for _, r := range auditRules {
		rules = append(rules, r.name)
	}
	for _, rule := range rules {
		if checked[rule] == 0 {
			t.Errorf("rule %s never had anything to check: the matrix does not exercise it", rule)
		}
	}
	t.Logf("%d commands audited; comparisons per rule: %v", commands, checked)
}

// auditCmd is one command of a hand-written stream.
type auditCmd struct {
	cmd  dram.Command
	bank int
	row  int
	at   int64
}

// TestAuditCheckerCatches feeds the checker hand-written streams on the
// default topology (banks 0 and 1 share a group), each legal up to its last
// command, which breaks exactly one rule. A judge nobody has seen
// convict is not a judge.
func TestAuditCheckerCatches(t *testing.T) {
	cfg, tm := dram.Default(), dram.DDR5()
	const (
		ACT, PRE, RD, WR, REF = dram.CmdACT, dram.CmdPRE, dram.CmdRD, dram.CmdWR, dram.CmdREF
		RFM, VRR, MIG, AUX    = dram.CmdRFM, dram.CmdVRR, dram.CmdMIG, dram.CmdAUX
	)
	g1, r1 := cfg.BanksPerGroup, cfg.BanksPerRank() // first bank of the next group, of the next rank
	mig := 2*tm.RC + int64(cfg.ColumnsPerRow)*tm.CCDL
	// Under DDR5 some rules never bind alone (tRC = tRAS+tRP, tFAW =
	// 4*tRRD_S, tCCD_S = BL): their streams run on stretched timings.
	longRC := func(t *dram.Timing) { t.RC += 10 }
	longFAW := func(t *dram.Timing) { t.FAW = 6 * t.RRDS }
	shortBurst := func(t *dram.Timing) { t.BL /= 2 }
	longBurst := func(t *dram.Timing) { t.BL *= 3 }
	for _, tc := range []struct {
		rule    string // "" = a legal stream
		stretch func(*dram.Timing)
		stream  []auditCmd
	}{
		{"", nil, []auditCmd{{ACT, 0, 7, 0}, {RD, 0, 7, tm.RCD}, {PRE, 0, 0, tm.RAS}, {ACT, 0, 8, tm.RC}, {PRE, 0, 0, tm.RC + tm.RAS}, {REF, 0, 0, 2 * tm.RC}, {ACT, 0, 9, 2*tm.RC + tm.RFC}}},
		{"tRCD", nil, []auditCmd{{ACT, 0, 7, 0}, {RD, 0, 7, tm.RCD - 1}}},
		{"tRCD", nil, []auditCmd{{ACT, 0, 7, 0}, {WR, 0, 7, tm.RCD - 1}}},
		{"tRAS", nil, []auditCmd{{ACT, 0, 7, 0}, {PRE, 0, 0, tm.RAS - 1}}},
		{"tRP", nil, []auditCmd{{ACT, 0, 7, 0}, {PRE, 0, 0, tm.RAS + 50}, {ACT, 0, 8, tm.RAS + 50 + tm.RP - 1}}},
		{"tRP", nil, []auditCmd{{ACT, 0, 7, 0}, {PRE, 0, 0, tm.RAS}, {RFM, 0, 0, tm.RAS + tm.RP - 1}}},
		{"tRC", longRC, []auditCmd{{ACT, 0, 7, 0}, {PRE, 0, 0, tm.RAS}, {ACT, 0, 8, tm.RAS + tm.RP}}},
		{"tRTP", nil, []auditCmd{{ACT, 0, 7, 0}, {RD, 0, 7, tm.RAS}, {PRE, 0, 0, tm.RAS + tm.RTP - 1}}},
		{"tWR", nil, []auditCmd{{ACT, 0, 7, 0}, {WR, 0, 7, tm.RCD}, {PRE, 0, 0, tm.RCD + tm.CWL + tm.BL + tm.WR - 1}}},
		{"tRRD_L", nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, 1, 7, tm.RRDL - 1}}},
		{"tRRD_S", nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, tm.RRDS - 1}}},
		{"tFAW", longFAW, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 8}, {ACT, 2 * g1, 7, 16}, {ACT, 3 * g1, 7, 24}, {ACT, 4 * g1, 7, 6*tm.RRDS - 1}}},
		{"tCCD_L-RD", nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, 1, 7, 12}, {RD, 0, 7, 100}, {RD, 1, 7, 100 + tm.CCDL - 1}}},
		{"tCCD_S-RD", shortBurst, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 12}, {RD, 0, 7, 100}, {RD, g1, 7, 100 + tm.CCDS - 1}}},
		{"tCCD_L-WR", nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, 1, 7, 12}, {WR, 0, 7, 100}, {WR, 1, 7, 100 + tm.CCDL - 1}}},
		{"tCCD_S-WR", shortBurst, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 12}, {WR, 0, 7, 100}, {WR, g1, 7, 100 + tm.CCDS - 1}}},
		{"tWTR_L", nil, []auditCmd{{ACT, 0, 7, 0}, {WR, 0, 7, 100}, {RD, 0, 7, 100 + tm.CWL + tm.BL + tm.WTRL - 1}}},
		// A write to another group in between hides nothing (the device
		// once admitted this RD at 160, tWTR_S after the g1 write).
		{"tWTR_L", nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 12}, {WR, 0, 7, 100}, {WR, g1, 7, 108}, {RD, 0, 7, 100 + tm.CWL + tm.BL + tm.WTRL - 1}}},
		{"tWTR_S", nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 12}, {WR, 0, 7, 100}, {RD, g1, 7, 100 + tm.CWL + tm.BL + tm.WTRS - 1}}},
		{"tRTW", nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 12}, {RD, 0, 7, 100}, {WR, g1, 7, 100 + tm.RTW - 1}}},
		{"bus-RD", longBurst, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 12}, {RD, 0, 7, 100}, {RD, g1, 7, 100 + tm.CCDS}}},
		{"bus-WR", longBurst, []auditCmd{{ACT, 0, 7, 0}, {ACT, g1, 7, 12}, {WR, 0, 7, 100}, {WR, g1, 7, 100 + tm.CCDS}}},
		{"tRFC", nil, []auditCmd{{REF, 0, 0, 100}, {ACT, 0, 7, 100 + tm.RFC - 1}}},
		{"tRFC", nil, []auditCmd{{REF, 0, 0, 100}, {REF, 0, 0, 100 + tm.RFC - 1}}},
		{"tRFM", nil, []auditCmd{{RFM, 0, 0, 100}, {ACT, 0, 7, 100 + tm.RFM - 1}}},
		{"VRR-tRC", nil, []auditCmd{{VRR, 0, 7, 100}, {ACT, 0, 7, 100 + tm.RC - 1}}},
		{"AUX-tRC", nil, []auditCmd{{AUX, 0, 0, 100}, {REF, 0, 0, 100 + tm.RC - 1}}}, // a bank of the refreshed rank
		{"MIG-block", nil, []auditCmd{{MIG, 0, 7, 100}, {VRR, 0, 7, 100 + mig - 1}}},
		{ruleOpenRow, nil, []auditCmd{{ACT, 0, 7, 0}, {RD, 0, 8, 100}}},
		{ruleOpenRow, nil, []auditCmd{{ACT, 0, 7, 0}, {PRE, 0, 0, tm.RAS}, {WR, 0, 7, 200}}},
		{ruleClosedBank, nil, []auditCmd{{ACT, 0, 7, 0}, {ACT, 0, 8, 500}}},
		{ruleClosedBank, nil, []auditCmd{{ACT, 0, 7, 0}, {VRR, 0, 8, 500}}},
		{ruleClosedBank, nil, []auditCmd{{ACT, 1, 7, 0}, {REF, 0, 0, 500}}},
		{ruleCmdBus, nil, []auditCmd{{ACT, 0, 7, 100}, {ACT, r1, 7, 100}}}, // another rank: nothing else binds
		{ruleCadence, nil, []auditCmd{{REF, 0, 0, 100}, {REF, 0, 0, 101 + 2*tm.REFI}}},
	} {
		timing := tm
		if tc.stretch != nil {
			tc.stretch(&timing)
		}
		k := newStreamChecker(cfg, timing)
		for i, c := range tc.stream {
			if i == len(tc.stream)-1 && k.total != 0 {
				t.Errorf("%s: stream is illegal before its last command: %v", tc.rule, k.first)
			}
			k.observe(c.cmd, dram.Addr{Bank: c.bank, Row: c.row}, c.at)
		}
		switch {
		case tc.rule == "" && k.total != 0:
			t.Errorf("legal stream convicted: %v", k.first)
		case tc.rule != "" && (k.violations[tc.rule] != 1 || k.total != 1):
			t.Errorf("%s: want exactly that one violation, got %v", tc.rule, k.violations)
		}
	}
	// finish sees a rank that was never refreshed again.
	k := newStreamChecker(cfg, tm)
	k.observe(REF, dram.Addr{}, 100)
	k.observe(REF, dram.Addr{Bank: r1}, 200)
	k.finish(200 + 2*tm.REFI)
	if k.violations[ruleCadence] != 1 {
		t.Errorf("finish: want rank 0 starved, got %v", k.violations)
	}
}

// TestAuditKnownLaxWTRL keeps the stream that once exposed the device's
// write-to-read laxity: its turnaround looked only at the channel's *last*
// write, so after WR g0 @100 and WR g1 @108 it admitted RD g0 at 160
// (tWTR_S after the g1 write) where the same-group tWTR_L after the g0
// write asks for 170. Issued through a real device, the device must now
// refuse the RD at 160, and the RD at the cycle it does name must leave
// the pairwise judge with nothing to convict.
func TestAuditKnownLaxWTRL(t *testing.T) {
	cfg, tm := dram.Default(), dram.DDR5()
	dev, err := dram.NewDevice(cfg, tm)
	if err != nil {
		t.Fatal(err)
	}
	k := newStreamChecker(cfg, tm)
	dev.SetIssueHook(k.observe)
	g0, g1 := dram.Addr{Bank: 0, Row: 7}, dram.Addr{Bank: cfg.BanksPerGroup, Row: 7}
	dev.Issue(dram.CmdACT, g0, 0)
	dev.Issue(dram.CmdACT, g1, 12)
	dev.Issue(dram.CmdWR, g0, 100)
	dev.Issue(dram.CmdWR, g1, 108)
	if k.total != 0 {
		t.Fatalf("the set-up is already illegal: %v", k.first)
	}
	lax := 108 + tm.CWL + tm.BL + tm.WTRS
	if dev.CanIssue(dram.CmdRD, g0, lax) {
		t.Fatalf("device admits RD g0 at %d, tWTR_S after the g1 write", lax)
	}
	at := dev.EarliestIssue(dram.CmdRD, g0)
	if want := 100 + tm.CWL + tm.BL + tm.WTRL; at != want {
		t.Fatalf("RD g0 earliest at %d, want %d (tWTR_L after the g0 write)", at, want)
	}
	dev.Issue(dram.CmdRD, g0, at)
	if k.total != 0 {
		t.Fatalf("RD g0 at %d convicted: %v", at, k.violations)
	}
}
