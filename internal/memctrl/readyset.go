package memctrl

import (
	"math"

	"breakhammer/internal/dram"
)

// This file implements the incremental FR-FCFS+Cap ready-sets that
// replaced the seed tree's full-queue scans (kept verbatim as the oracle
// in refsched_test.go). The key facts that make per-bank scheduling
// byte-identical to the global FCFS walk:
//
//   - Within one queue every request issues the same column command
//     (readQ→RD, writeQ→WR) and CanIssue for a column command ignores the
//     column address, so all row-hits in a bank share one verdict: the
//     only pass-1 candidate a bank can ever serve is its OLDEST hit, and
//     a CanIssue failure disqualifies the whole bank for this cycle.
//   - hasOlderConflict(oldest hit) reduces to confIdx < hitIdx on the
//     bank's own FCFS list: a global scan only ever compares same-bank
//     entries.
//   - CanIssue(ACT) does not depend on the row, and CanIssue(PRE) only on
//     the bank, so in pass 2 a bank is exhausted after its first failed
//     attempt. An installed ActGate is the one exception, and a branch of
//     pass 2 (gateWalk) rather than a second scheduler: the gate is
//     stateful (BlockHammer counts every rejection), so a closed bank
//     advances to its next request where the ungated pick drops the bank,
//     and every evaluation happens in the flat scan's order and count.
//   - The cap rule and the bank-ownership rule are stated once, in
//     classify, and read once per bank per state: fillBank turns what it
//     names into the bank's row of a candidate table, with each
//     candidate's legal-at cycle (dram.Device.EarliestIssue). schedule
//     picks both passes from that table in one scan (pass 1 commits
//     nothing when it fails, so pass 2 would classify the same state), and
//     the controller's sleep is the table's minimum.
//   - Legal-at cycles answer CanIssue: CanIssue is EarliestIssue <= now,
//     and the device only changes when this controller issues to it. So a
//     table stays exact, at every later cycle, until a command or an input
//     changes what classify or EarliestIssue reads — the table's doors
//     (see Controller.tab). A command writes little of that state, so it
//     patches the table rather than dropping it: patch re-reads exactly
//     the entries the command can move, and a rebuild happens only after
//     wake or a write-drain flip of the selected queue.
//   - Taking the minimum arrival sequence across per-bank candidates
//     reproduces the global FCFS scan order exactly, because requests
//     enter the per-bank FIFOs in arrival order.

// bankFIFO holds one bank's share of a request queue in arrival order,
// with a cached location of the oldest row-hit and oldest row-conflict
// for the bank's current row state. The cache is validated lazily against
// dram.Device.OpenRow — any command that opens or closes the row simply
// makes the next validate recompute — and is patched incrementally on
// enqueue and removal, so steady-state scheduling never rescans the FIFO.
type bankFIFO struct {
	reqs []*Request

	cacheValid bool
	cacheOpen  bool
	cacheRow   int
	hitIdx     int // oldest request to cacheRow; -1 if none (or bank closed)
	confIdx    int // oldest request to any other row; -1 if none. Bank closed: 0.
}

// validate refreshes the hit/conflict cache if the bank's row state
// changed since it was computed.
func (f *bankFIFO) validate(row int, open bool) {
	if f.cacheValid && f.cacheOpen == open && (!open || f.cacheRow == row) {
		return
	}
	f.cacheValid, f.cacheOpen, f.cacheRow = true, open, row
	f.hitIdx = f.scanFrom(0, true)
	f.confIdx = f.scanFrom(0, false)
}

// scanFrom finds the first index >= i that is a hit (hit=true) or a
// conflict (hit=false) under the cached row state; -1 if none. With the
// bank closed every queued request needs an ACT, so it counts as a
// conflict and no request is a hit.
func (f *bankFIFO) scanFrom(i int, hit bool) int {
	if !f.cacheOpen {
		if hit || i >= len(f.reqs) {
			return -1
		}
		return i
	}
	for ; i < len(f.reqs); i++ {
		if (f.reqs[i].Addr.Row == f.cacheRow) == hit {
			return i
		}
	}
	return -1
}

// push appends a request (arrival order) and patches the cache.
func (f *bankFIFO) push(r *Request) {
	i := len(f.reqs)
	f.reqs = append(f.reqs, r)
	if !f.cacheValid {
		return
	}
	if f.cacheOpen && r.Addr.Row == f.cacheRow {
		if f.hitIdx < 0 {
			f.hitIdx = i
		}
	} else if f.confIdx < 0 {
		f.confIdx = i
	}
}

// remove deletes the request at index i and patches the cache: later
// indices shift down; if the removed request was the cached oldest
// hit/conflict, the next one is found by scanning forward from i only.
func (f *bankFIFO) remove(i int) {
	copy(f.reqs[i:], f.reqs[i+1:])
	last := len(f.reqs) - 1
	f.reqs[last] = nil
	f.reqs = f.reqs[:last]
	if !f.cacheValid {
		return
	}
	if f.hitIdx > i {
		f.hitIdx--
	} else if f.hitIdx == i {
		f.hitIdx = f.scanFrom(i, true)
	}
	if f.confIdx > i {
		f.confIdx--
	} else if f.confIdx == i {
		f.confIdx = f.scanFrom(i, false)
	}
}

// readyQueue is one direction's request queue (reads or writes) sharded
// into per-bank FIFOs, plus a dense set of occupied banks so schedule()
// visits only banks that actually hold requests.
type readyQueue struct {
	banks  []bankFIFO
	active []int32 // banks with at least one request, unordered
	pos    []int32 // bank -> index in active; -1 when absent
	count  int     // total queued requests across banks
}

func newReadyQueue(nbanks int) readyQueue {
	pos := make([]int32, nbanks)
	for i := range pos {
		pos[i] = -1
	}
	return readyQueue{
		banks:  make([]bankFIFO, nbanks),
		active: make([]int32, 0, nbanks),
		pos:    pos,
	}
}

func (q *readyQueue) push(bank int, r *Request) {
	fb := &q.banks[bank]
	if len(fb.reqs) == 0 {
		q.pos[bank] = int32(len(q.active))
		q.active = append(q.active, int32(bank))
	}
	fb.push(r)
	q.count++
}

func (q *readyQueue) removeAt(bank, i int) {
	fb := &q.banks[bank]
	fb.remove(i)
	q.count--
	if len(fb.reqs) == 0 {
		j := q.pos[bank]
		last := q.active[len(q.active)-1]
		q.active[j] = last
		q.pos[last] = j
		q.active = q.active[:len(q.active)-1]
		q.pos[bank] = -1
	}
}

// cand is one entry of the candidate table: the request at idx of its
// bank's FIFO, ordered against other banks' entries by its arrival
// sequence, and the first cycle its command is legal with the device
// frozen (at; dram.Never: the bank has no such candidate). A row entry's
// command is the PRE ahead of an open bank's oldest conflict (open) or a
// closed bank's ACT.
type cand struct {
	at   int64
	seq  uint64
	idx  int32
	open bool
}

// bankCands is one occupied bank's row of the candidate table: its pass-1
// column candidate and its pass-2 row candidate.
type bankCands struct {
	col, row cand
}

// classify is the one statement of FR-FCFS+Cap's per-bank rules. For an
// occupied bank of q under the bank's current row state it answers which
// request is the bank's oldest uncapped row-hit (hit; -1: none, or an
// older conflict has been bypassed Cap times and hits are no longer
// preferred) and which request's row command comes next (next; -1: none,
// or refresh or a queued preventive action owns the bank) — with open
// true that command is the PRE ahead of the bank's oldest conflict, with
// open false the ACT of a closed bank's oldest request. fillBank is its
// one caller: it turns "what" into "when", and schedule and the sleep
// read the answer off the table; none of them restates a rule.
func (c *Controller) classify(q *readyQueue, bank int) (hit, next int, open bool) {
	fb := &q.banks[bank]
	row, open := c.dev.OpenRow(bank)
	fb.validate(row, open)
	hit, next = fb.hitIdx, fb.confIdx
	if hit >= 0 && next >= 0 && next < hit && c.capCount[bank] >= c.cfg.Cap {
		hit = -1 // cap reached: stop preferring hits on this bank
	}
	if c.prevQ[bank].len() > 0 || c.refPending[c.dev.RankOf(bank)] {
		next = -1 // let higher-priority work own the bank
	}
	return hit, next, open
}

// fillBank writes an occupied bank's row of the candidate table: what
// classify names, and when each command becomes legal — EarliestIssue of
// the hit's RD/WR, of the PRE, or of the ACT floored at backoffUntil (PRAC
// back-off holds the ACT, and only the ACT). It returns the earlier of the
// two cycles, the bank's share of the controller's sleep.
func (c *Controller) fillBank(q *readyQueue, bank int) int64 {
	hit, next, open := c.classify(q, bank)
	reqs := q.banks[bank].reqs
	e := &c.tab[bank]
	e.col.at, e.row.at = dram.Never, dram.Never
	if hit >= 0 {
		r := reqs[hit]
		e.col = cand{at: c.dev.EarliestIssue(columnCmd(r), r.Addr), seq: r.seq, idx: int32(hit)}
	}
	if next >= 0 {
		r := reqs[next]
		var at int64
		if open {
			at = c.dev.EarliestIssue(dram.CmdPRE, dram.Addr{Bank: bank})
		} else {
			at = max(c.dev.EarliestIssue(dram.CmdACT, r.Addr), c.backoffUntil)
		}
		e.row = cand{at: at, seq: r.seq, idx: int32(next), open: open}
	}
	return min(e.col.at, e.row.at)
}

// candidates makes the candidate table cover q, rebuilding it if it is
// stale (wake) or covers the other queue (a write-drain flip).
func (c *Controller) candidates(q *readyQueue) {
	if c.tabQ == q {
		return
	}
	c.tabQ = q
	for _, b := range q.active {
		c.fillBank(q, int(b))
	}
}

// patch is the table's door for an issued command: every
// dram.Device.Issue call site in the controller calls it once the
// command's own bookkeeping is done (the request removed, the preventive
// action popped, the activate observers run). It re-reads what the
// command can have moved, which follows from the state each command
// writes:
//
//   - Any command to bank refills the bank's row if the bank is occupied:
//     its row state, timing history, FIFO, capCount and prevQ are the
//     bank's own, and classify reads nothing else but refPending.
//   - RD/WR also move every other column candidate: busFreeAt and the
//     channel's and bank group's tCCD/tWTR history are shared. What
//     classify names is unchanged, so only the legal-at cycle is re-read.
//   - ACT also moves the ACT of every other closed bank in its rank
//     (tRRD, tFAW), floored at backoffUntil as fillBank does.
//   - REF refills its whole rank: refUntil, the banks' recovery and
//     refPending are rank-wide (refillRank; tryRefresh calls that too
//     when a deadline turns a rank pending).
//
// A stale table (tabQ nil) has nothing to patch: candidates rebuilds it.
// Dropping a clause leaves stale entries: too early a legal-at cycle makes
// Device.Issue panic on the command schedule picks, too late a one or a
// stale classify answer makes the frozen scheduler and the polling twin
// diverge, and tableMatchesRebuild, run after every Tick of the
// differential tests, names the first stale entry.
func (c *Controller) patch(cmd dram.Command, bank int) {
	q := c.tabQ
	if q == nil {
		return
	}
	switch cmd {
	case dram.CmdREF:
		c.refillRank(c.dev.RankOf(bank))
		return
	case dram.CmdRD, dram.CmdWR:
		for _, b := range q.active {
			if e := &c.tab[b]; int(b) != bank && e.col.at != dram.Never {
				r := q.banks[b].reqs[e.col.idx]
				e.col.at = c.dev.EarliestIssue(columnCmd(r), r.Addr)
			}
		}
	case dram.CmdACT:
		rank := c.dev.RankOf(bank)
		for _, b := range q.active {
			e := &c.tab[b]
			if int(b) == bank || e.row.at == dram.Never || e.row.open || c.dev.RankOf(int(b)) != rank {
				continue
			}
			r := q.banks[b].reqs[e.row.idx]
			e.row.at = max(c.dev.EarliestIssue(dram.CmdACT, r.Addr), c.backoffUntil)
		}
	}
	if len(q.banks[bank].reqs) > 0 {
		c.fillBank(q, bank)
	}
}

// refillRank refills the table rows of rank's occupied banks, if the
// table is current: after its REF, and when its refresh deadline turns it
// pending (classify drops its banks' row commands).
func (c *Controller) refillRank(rank int) {
	q := c.tabQ
	if q == nil {
		return
	}
	for b := rank * c.banksPerRank; b < (rank+1)*c.banksPerRank; b++ {
		if len(q.banks[b].reqs) > 0 {
			c.fillBank(q, b)
		}
	}
}

// columnCmd is the column command that serves req.
func columnCmd(req *Request) dram.Command {
	if req.Write {
		return dram.CmdWR
	}
	return dram.CmdRD
}

// schedule implements FR-FCFS with a cap on column-over-row reordering —
// a row-hit request may bypass at most Cap older row-conflict requests to
// the same bank before the oldest conflicting request is served first —
// picking from q's candidate table (see candidates). Returns true if a
// command issued. Command-for-command identical to the seed tree's
// full-queue scan (see refsched_test.go and the differential tests that
// pin the equivalence).
func (c *Controller) schedule(q *readyQueue) bool {
	// One scan over the table finds both passes' picks: the oldest legal
	// row-hit column command (pass 1) and the oldest legal row command
	// (pass 2). A legal-at cycle answers CanIssue, so a bank blocked by
	// refresh/RFM/VRR/MIG — or, for an ACT, the channel paused by PRAC
	// back-off — simply has nothing legal yet.
	col, row := int32(-1), int32(-1)
	colSeq, rowSeq := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for _, b := range q.active {
		e := &c.tab[b]
		if e.col.at <= c.now && e.col.seq < colSeq {
			col, colSeq = b, e.col.seq
		}
		if e.row.at <= c.now && e.row.seq < rowSeq {
			row, rowSeq = b, e.row.seq
		}
	}

	if col >= 0 {
		bank := int(col)
		fb := &q.banks[bank]
		idx := c.tab[bank].col.idx
		req := fb.reqs[idx]
		res := c.dev.Issue(columnCmd(req), req.Addr, c.now)
		if req.Thread >= 0 && !req.opened {
			c.stats.RowHits[req.Thread]++
		}
		if f := fb.confIdx; f >= 0 && int32(f) < idx {
			c.capCount[bank]++
		}
		q.removeAt(bank, int(idx))
		c.completeColumn(req, res)
		c.patch(columnCmd(req), bank)
		return true
	}

	// Pass 2 issues the oldest legal row command — unless an ActGate is
	// installed, whose evaluations must keep the flat scan's order and
	// count: gateWalk then picks the row command to issue.
	var idx int32
	if c.actGate != nil {
		row, idx = c.gateWalk(q)
	} else if row >= 0 {
		idx = c.tab[row].row.idx
	}
	if row < 0 {
		return false
	}
	bank := int(row)
	if c.tab[bank].row.open {
		c.dev.Issue(dram.CmdPRE, dram.Addr{Bank: bank}, c.now)
		c.capCount[bank] = 0
		c.patch(dram.CmdPRE, bank)
		return true
	}
	c.issueACT(q.banks[bank].reqs[idx], bank)
	return true
}

// gateCand is one row entry in gateWalk's scratch: a copy of a table
// entry, and its bank.
type gateCand struct {
	cand
	bank int32
}

// gateWalk is pass 2's branch for an installed ActGate. The gate is
// stateful (BlockHammer counts every rejection), so it runs the flat
// scan's walk: row entries oldest first across banks, where a closed
// bank's entry — not blocked, channel not paused — advances to the bank's
// next request after a rejection or after a pass its ACT cannot use yet,
// instead of dropping the bank. It walks a copy of the entries, so the
// table stays as it is, and returns the bank and request whose row command
// issues (a legal PRE, or a legal ACT the gate passed), or bank -1. It
// reads no legal-at cycle the ungated pick does not, and computes none.
func (c *Controller) gateWalk(q *readyQueue) (bank, idx int32) {
	paused := c.now < c.backoffUntil
	walk := c.gateCands[:0]
	for _, b := range q.active {
		e := c.tab[b].row
		switch {
		case e.at == dram.Never:
		case e.open && e.at > c.now: // an illegal PRE fails without side effects
		case e.open || !paused && c.dev.BankBlockedUntil(int(b)) <= c.now:
			walk = append(walk, gateCand{cand: e, bank: b})
		}
	}
	c.gateCands = walk
	for len(walk) > 0 {
		i := 0
		for j := 1; j < len(walk); j++ {
			if walk[j].seq < walk[i].seq {
				i = j
			}
		}
		gc := &walk[i]
		if gc.open {
			return gc.bank, gc.idx
		}
		reqs := q.banks[gc.bank].reqs
		req := reqs[gc.idx]
		if !c.actGate(int(gc.bank), req.Addr.Row, req.Thread, c.now) {
			c.stats.GatedACTs++
		} else if gc.at <= c.now {
			return gc.bank, gc.idx
		}
		if gc.idx++; int(gc.idx) < len(reqs) {
			gc.seq = reqs[gc.idx].seq
			continue
		}
		walk[i] = walk[len(walk)-1] // bank walked to its end
		walk = walk[:len(walk)-1]
	}
	return -1, 0
}

// issueACT performs a demand activation for req, fires the activate
// observers and then patches the table, which an observer's preventive
// request may have dropped.
func (c *Controller) issueACT(req *Request, bank int) {
	c.dev.Issue(dram.CmdACT, req.Addr, c.now)
	req.opened = true
	c.capCount[bank] = 0
	c.stats.TotalACTs++
	if req.Thread >= 0 {
		c.stats.DemandACTs[req.Thread]++
	}
	c.Activated(bank, req.Addr.Row, req.Thread, c.now)
	c.patch(dram.CmdACT, bank)
}
