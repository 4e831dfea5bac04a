package dram

// FROZEN REFERENCE — do not edit to make a test pass.
//
// This file holds the boolean statement of the device's timing rules as it
// stood when Device.CanIssue still had a body of its own (PR 22): the two
// functions below are that CanIssue and its columnGapOK byte for byte, only
// renamed. Device.CanIssue is now "EarliestIssue <= now", so EarliestIssue
// is the one reader of the timing table in the simulator, and this copy is
// the independent statement TestEarliestIssueMatchesReference and
// FuzzEarliestIssue pin it against — exactly, in both directions. It is the
// same discipline as memctrl's refsched_test.go, cpu's refCore and stats'
// refHistogram: when the two disagree, the device is wrong until someone
// shows, against the DRAM standard, that the reference is.
//
// The semantics are the seed's except where an exception line below says
// otherwise; each names the bug that forced the edit. The pairwise judge of
// the whole command stream is internal/sim's stream audit (audit_test.go).
//
// Exceptions:
//
//	2026-10-15, results schema 5: refColumnGapOK looked only at the
//	channel's *last* RD/WR, laxer than the standard — after ACT g0, ACT g1,
//	WR g0 @100, WR g1 @108 it admitted RD g0 at 160 where same-group
//	tWTR_L asks for 170 (tCCD_L had the same shape). It is now stated
//	pairwise against every bank group's history.

// refCanIssue reports whether cmd to addr satisfies every timing constraint
// at cycle now: CanIssue's body as of PR 22.
func (d *Device) refCanIssue(cmd Command, addr Addr, now int64) bool {
	if addr.Bank < 0 || addr.Bank >= len(d.banks) {
		return false
	}
	b := &d.banks[addr.Bank]
	rank := d.rankOf[addr.Bank]
	r := &d.ranks[rank]
	t := &d.timing

	if now < r.refUntil || now < b.blocked {
		// Rank under refresh or bank blocked by RFM/VRR/MIG: only nothing
		// may issue (the blocking command already owns the bank).
		return false
	}

	switch cmd {
	case CmdACT:
		if b.hasOpen {
			return false
		}
		if now < b.preReady {
			return false
		}
		// tRRD same/different bank group.
		if r.lastACT != neverIssued {
			group := d.groupOf[addr.Bank]
			gap := t.RRDS
			if group == r.lastACTGroup {
				gap = t.RRDL
			}
			if now < r.lastACT+gap {
				return false
			}
		}
		// tFAW: at most 4 ACTs per rank per window.
		oldest := r.actWindow[r.actWindowIdx]
		if oldest != neverIssued && now < oldest+t.FAW {
			return false
		}
		return true

	case CmdPRE:
		if !b.hasOpen {
			return true // PRE to a precharged bank is a harmless no-op; allow.
		}
		if now < b.actAt+t.RAS {
			return false
		}
		if b.lastRD != neverIssued && now < b.lastRD+t.RTP {
			return false
		}
		if b.lastWRend != neverIssued && now < b.lastWRend+t.WR {
			return false
		}
		return true

	case CmdRD:
		if !b.hasOpen || b.openRow != addr.Row {
			return false
		}
		if now < b.actAt+t.RCD {
			return false
		}
		if !d.refColumnGapOK(now, addr.Bank, false) {
			return false
		}
		return now+t.CL >= d.busFreeAt

	case CmdWR:
		if !b.hasOpen || b.openRow != addr.Row {
			return false
		}
		if now < b.actAt+t.RCD {
			return false
		}
		if !d.refColumnGapOK(now, addr.Bank, true) {
			return false
		}
		return now+t.CWL >= d.busFreeAt

	case CmdREF:
		// All banks in the rank must be precharged and idle.
		base := rank * d.cfg.BanksPerRank()
		for i := base; i < base+d.cfg.BanksPerRank(); i++ {
			bb := &d.banks[i]
			if bb.hasOpen || now < bb.preReady || now < bb.blocked {
				return false
			}
		}
		return true

	case CmdRFM, CmdVRR, CmdAUX:
		return !b.hasOpen && now >= b.preReady

	case CmdMIG:
		return !b.hasOpen && now >= b.preReady

	default:
		return false
	}
}

// refColumnGapOK checks CCD (same-command) and turnaround (RD<->WR, WR->RD)
// constraints for a column command at cycle now, pairwise: against every
// bank group's latest RD, WR and write-data end, with the long gap inside
// the command's own group and the short one across groups.
func (d *Device) refColumnGapOK(now int64, bank int, isWrite bool) bool {
	t := &d.timing
	key := d.keyOf[bank]
	for g, h := range d.groups {
		ccd, wtr := t.CCDS, t.WTRS
		if g == key {
			ccd, wtr = t.CCDL, t.WTRL
		}
		if isWrite {
			if h.lastWR != neverIssued && now < h.lastWR+ccd {
				return false
			}
			if h.lastRD != neverIssued && now < h.lastRD+t.RTW {
				return false
			}
			continue
		}
		if h.lastRD != neverIssued && now < h.lastRD+ccd {
			return false
		}
		if h.lastWRend != neverIssued && now < h.lastWRend+wtr {
			return false
		}
	}
	return true
}
