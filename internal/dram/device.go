package dram

import "fmt"

// neverIssued marks a timestamp "long ago" so that all constraints measured
// against it are trivially satisfied at cycle 0.
const neverIssued = int64(-1 << 40)

// bankState tracks the row buffer and timing history of one bank.
type bankState struct {
	openRow   int  // -1 when precharged
	hasOpen   bool // row buffer valid
	actAt     int64
	preReady  int64 // earliest cycle an ACT may issue (after tRP / RFM / VRR)
	lastRD    int64
	lastWRend int64 // cycle when the last write burst finished on the data bus
	blocked   int64 // bank unavailable until this cycle (RFM/VRR/MIG/REF)
}

// rankState tracks rank-level constraints (tRRD, tFAW, refresh).
type rankState struct {
	lastACT      int64
	lastACTGroup int // bank group of the most recent ACT
	actWindow    [4]int64
	actWindowIdx int
	refUntil     int64 // rank blocked by REF until this cycle
}

// groupState is one bank group's column-command history.
type groupState struct {
	lastRD, lastWR, lastWRend int64
}

// Device is a cycle-level model of all DRAM chips behind one channel.
// It validates command timing, tracks row-buffer state, and accumulates
// energy. The Device does not schedule: the memory controller decides what
// to issue and when; the Device answers "is this legal now?".
type Device struct {
	cfg    Config
	timing Timing

	banks []bankState
	ranks []rankState

	// Per-bank decode lookup tables (avoid div/mod on the hot path).
	rankOf  []int
	groupOf []int
	keyOf   []int // channel-unique bank-group key

	// Column-command history: the channel's most recent RD, WR and
	// write-data end (the different-group gaps tCCD_S, tWTR_S and the RD->WR
	// turnaround), and the same three per bank group (the same-group gaps
	// tCCD_L and tWTR_L, which a later command to another group must not
	// hide).
	busFreeAt int64
	lastRD    int64
	lastWR    int64
	lastWRend int64
	groups    []groupState // indexed by keyOf

	energy EnergyCounter

	// issueHook, when set, observes every issued command. It exists for
	// auditing (independent re-verification of timing invariants over a
	// whole simulation) and characterisation; it is nil in normal runs.
	issueHook func(cmd Command, addr Addr, now int64)
}

// SetIssueHook installs an observer of every issued command.
func (d *Device) SetIssueHook(h func(cmd Command, addr Addr, now int64)) { d.issueHook = h }

// NewDevice constructs a Device with the given topology and timing.
func NewDevice(cfg Config, timing Timing) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, timing: timing}
	d.banks = make([]bankState, cfg.TotalBanks())
	d.ranks = make([]rankState, cfg.Ranks)
	d.rankOf = make([]int, cfg.TotalBanks())
	d.groupOf = make([]int, cfg.TotalBanks())
	d.keyOf = make([]int, cfg.TotalBanks())
	for b := 0; b < cfg.TotalBanks(); b++ {
		rank, group, _ := cfg.BankOf(b)
		d.rankOf[b] = rank
		d.groupOf[b] = group
		d.keyOf[b] = rank*cfg.BankGroups + group
	}
	for i := range d.banks {
		d.banks[i] = bankState{
			openRow:   -1,
			actAt:     neverIssued,
			preReady:  0,
			lastRD:    neverIssued,
			lastWRend: neverIssued,
			blocked:   neverIssued,
		}
	}
	for i := range d.ranks {
		d.ranks[i] = rankState{
			lastACT:      neverIssued,
			lastACTGroup: -1,
			refUntil:     neverIssued,
		}
		for j := range d.ranks[i].actWindow {
			d.ranks[i].actWindow[j] = neverIssued
		}
	}
	d.busFreeAt = 0
	d.lastRD, d.lastWR, d.lastWRend = neverIssued, neverIssued, neverIssued
	d.groups = make([]groupState, cfg.Ranks*cfg.BankGroups)
	for i := range d.groups {
		d.groups[i] = groupState{lastRD: neverIssued, lastWR: neverIssued, lastWRend: neverIssued}
	}
	return d, nil
}

// Config returns the device topology.
func (d *Device) Config() Config { return d.cfg }

// Timing returns the device timing constraints.
func (d *Device) Timing() Timing { return d.timing }

// Energy returns the accumulated energy counters.
func (d *Device) Energy() *EnergyCounter { return &d.energy }

// OpenRow reports the currently open row in a bank, or (0, false) if the
// bank is precharged.
func (d *Device) OpenRow(bank int) (int, bool) {
	b := &d.banks[bank]
	if !b.hasOpen {
		return 0, false
	}
	return b.openRow, true
}

// RankOf returns the rank of a global bank index (lookup, no division).
func (d *Device) RankOf(bank int) int { return d.rankOf[bank] }

// CanIssue reports whether cmd to addr satisfies every timing constraint at
// cycle now: EarliestIssue, the one reader of the timing table, has passed.
func (d *Device) CanIssue(cmd Command, addr Addr, now int64) bool {
	return d.EarliestIssue(cmd, addr) <= now
}

// IssueResult reports side effects of a command issue.
type IssueResult struct {
	DataAt int64 // cycle the data burst completes (RD/WR), 0 otherwise
	DoneAt int64 // cycle the command's blocking effect ends
}

// Issue applies cmd to the device state. The caller must have validated the
// command with CanIssue; Issue panics on an illegal command to surface
// scheduler bugs immediately.
func (d *Device) Issue(cmd Command, addr Addr, now int64) IssueResult {
	if !d.CanIssue(cmd, addr, now) {
		panic(fmt.Sprintf("dram: illegal %v to %v at cycle %d", cmd, addr, now))
	}
	if d.issueHook != nil {
		d.issueHook(cmd, addr, now)
	}
	b := &d.banks[addr.Bank]
	rank := d.rankOf[addr.Bank]
	r := &d.ranks[rank]
	t := &d.timing

	switch cmd {
	case CmdACT:
		b.hasOpen = true
		b.openRow = addr.Row
		b.actAt = now
		b.lastRD = neverIssued
		b.lastWRend = neverIssued
		r.lastACT = now
		r.lastACTGroup = d.groupOf[addr.Bank]
		r.actWindow[r.actWindowIdx] = now
		r.actWindowIdx = (r.actWindowIdx + 1) % len(r.actWindow)
		d.energy.Add(CmdACT, 1)
		return IssueResult{DoneAt: now + t.RCD}

	case CmdPRE:
		if b.hasOpen {
			d.energy.Add(CmdPRE, 1)
		}
		b.hasOpen = false
		b.openRow = -1
		b.preReady = now + t.RP
		return IssueResult{DoneAt: now + t.RP}

	case CmdRD:
		b.lastRD = now
		d.lastRD = now
		d.groups[d.keyOf[addr.Bank]].lastRD = now
		dataEnd := now + t.CL + t.BL
		d.busFreeAt = dataEnd
		d.energy.Add(CmdRD, 1)
		return IssueResult{DataAt: dataEnd, DoneAt: dataEnd}

	case CmdWR:
		dataEnd := now + t.CWL + t.BL
		b.lastWRend = dataEnd
		d.lastWR, d.lastWRend = now, dataEnd
		g := &d.groups[d.keyOf[addr.Bank]]
		g.lastWR, g.lastWRend = now, dataEnd
		d.busFreeAt = dataEnd
		d.energy.Add(CmdWR, 1)
		return IssueResult{DataAt: dataEnd, DoneAt: dataEnd}

	case CmdREF:
		until := now + t.RFC
		r.refUntil = until
		base := rank * d.cfg.BanksPerRank()
		for i := base; i < base+d.cfg.BanksPerRank(); i++ {
			d.banks[i].preReady = until
		}
		d.energy.Add(CmdREF, 1)
		return IssueResult{DoneAt: until}

	case CmdRFM:
		until := now + t.RFM
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdRFM, 1)
		return IssueResult{DoneAt: until}

	case CmdVRR:
		// A targeted refresh internally activates and precharges the victim
		// row: the bank is busy for a full row cycle.
		until := now + t.RC
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdVRR, 1)
		return IssueResult{DoneAt: until}

	case CmdAUX:
		// A metadata access (e.g. Hydra's in-DRAM row-count table) costs a
		// full row cycle on the bank: ACT + burst + PRE.
		until := now + t.RC
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdAUX, 1)
		return IssueResult{DoneAt: until}

	case CmdMIG:
		// Row migration copies a full row through the internal datapath:
		// ACT + column stream + PRE on both source and destination. We model
		// it as one blocking interval covering two row cycles plus the
		// column transfer time.
		cols := int64(d.cfg.ColumnsPerRow)
		until := now + 2*t.RC + cols*t.CCDL
		b.blocked = until
		b.preReady = until
		d.energy.Add(CmdMIG, 1)
		return IssueResult{DoneAt: until}
	}
	panic("dram: unhandled command " + cmd.String())
}

// BankBlockedUntil reports when a bank becomes available again (the later of
// refresh, RFM/VRR/MIG blocking, and precharge recovery).
func (d *Device) BankBlockedUntil(bank int) int64 {
	until := d.banks[bank].blocked
	if r := d.ranks[d.rankOf[bank]].refUntil; r > until {
		until = r
	}
	return until
}

// Never is the cycle EarliestIssue reports for a command that no amount of
// waiting makes legal: another command has to issue first (an ACT to an
// open bank, a column command to a row that is not open, a REF to a rank
// with an open row). It is far enough out to double as the "nothing
// pending" answer of a NextWake.
const Never = int64(1) << 62

// EarliestIssue returns the first cycle at which cmd to addr is legal given
// that no further command issues in between (device state frozen), or Never
// when the command needs another command first. Every constraint is "now >=
// some timestamp of device state", so the answer is the maximum of those
// timestamps; it may lie in the past — the command is legal now. It is the
// only reader of the timing table (with columnGapOpens): CanIssue compares
// it with now, and the memory controller sleeps on its minimum over the
// commands it could pick, so an over-estimate would change simulations.
// Two judges outside the hot path keep it honest: the frozen boolean
// statement in reference_test.go pins it exactly, in both directions
// (TestEarliestIssueMatchesReference, FuzzEarliestIssue), and internal/sim's
// audit_test.go re-checks every dram.Timing constraint pairwise over whole
// simulations' command streams.
func (d *Device) EarliestIssue(cmd Command, addr Addr) int64 {
	if addr.Bank < 0 || addr.Bank >= len(d.banks) {
		return Never
	}
	b := &d.banks[addr.Bank]
	rank := d.rankOf[addr.Bank]
	r := &d.ranks[rank]
	t := &d.timing

	// Rank under refresh or bank blocked by RFM/VRR/MIG gates every command
	// (the blocking command already owns the bank).
	at := max(r.refUntil, b.blocked)

	switch cmd {
	case CmdACT:
		if b.hasOpen {
			return Never
		}
		at = max(at, b.preReady)
		if r.lastACT != neverIssued { // tRRD, same or different bank group
			gap := t.RRDS
			if d.groupOf[addr.Bank] == r.lastACTGroup {
				gap = t.RRDL
			}
			at = max(at, r.lastACT+gap)
		}
		// tFAW: at most 4 ACTs per rank per window.
		if oldest := r.actWindow[r.actWindowIdx]; oldest != neverIssued {
			at = max(at, oldest+t.FAW)
		}
		return at

	case CmdPRE:
		if !b.hasOpen {
			return at // PRE to a precharged bank is a harmless no-op; allow.
		}
		at = max(at, b.actAt+t.RAS)
		if b.lastRD != neverIssued {
			at = max(at, b.lastRD+t.RTP)
		}
		if b.lastWRend != neverIssued {
			at = max(at, b.lastWRend+t.WR)
		}
		return at

	case CmdRD, CmdWR:
		if !b.hasOpen || b.openRow != addr.Row {
			return Never
		}
		at = max(at, b.actAt+t.RCD, d.columnGapOpens(addr.Bank, cmd == CmdWR))
		if cmd == CmdWR {
			return max(at, d.busFreeAt-t.CWL)
		}
		return max(at, d.busFreeAt-t.CL)

	case CmdREF:
		// All banks in the rank must be precharged and idle.
		base := rank * d.cfg.BanksPerRank()
		for i := base; i < base+d.cfg.BanksPerRank(); i++ {
			bb := &d.banks[i]
			if bb.hasOpen {
				return Never
			}
			at = max(at, bb.preReady, bb.blocked)
		}
		return at

	case CmdRFM, CmdVRR, CmdAUX, CmdMIG:
		if b.hasOpen {
			return Never
		}
		return max(at, b.preReady)

	default:
		return Never
	}
}

// columnGapOpens returns the first cycle the CCD (same-command) and
// turnaround (RD->WR, WR->RD) constraints admit a column command to bank:
// the short gap after the channel's latest command of each kind, the long
// one after the bank group's. (A never-issued history is so far in the
// past that any gap after it has long opened.)
func (d *Device) columnGapOpens(bank int, isWrite bool) int64 {
	t := &d.timing
	g := &d.groups[d.keyOf[bank]]
	if isWrite {
		return max(d.lastWR+t.CCDS, g.lastWR+t.CCDL, d.lastRD+t.RTW)
	}
	return max(d.lastRD+t.CCDS, g.lastRD+t.CCDL, d.lastWRend+t.WTRS, g.lastWRend+t.WTRL)
}
