package memctrl

import "breakhammer/internal/dram"

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
//     the same oldest-first walker rather than a second one: the gate is
//     stateful (BlockHammer counts every rejection), so a closed bank
//     advances to its next request where the ungated walk drops the bank,
//     and every evaluation happens in the flat scan's order and count.
//   - The cap rule and the bank-ownership rule are stated once, in
//     classify. schedule collects both passes' candidates from it in one
//     walk over the occupied banks (pass 1 commits nothing when it fails,
//     so pass 2 would classify the same state), and the controller's sleep
//     bound (earliestDemand) asks it the same question and only turns
//     "what" into "when".
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

// cand is one bank's entry in a scheduling pass: the request at idx of the
// bank's FIFO, ordered against other banks' entries by its arrival
// sequence. In pass 2, open says the bank's row command is a PRE (an open
// bank's oldest conflict) rather than an ACT (a closed bank's request).
type cand struct {
	seq  uint64
	bank int32
	idx  int32
	open bool
}

// oldest returns the position of the candidate that arrived first.
// (Candidate counts are bounded by the bank count and tiny in practice;
// most passes issue on the first pick, so nothing is sorted up front.)
func oldest(cs []cand) int {
	mi := 0
	for i := 1; i < len(cs); i++ {
		if cs[i].seq < cs[mi].seq {
			mi = i
		}
	}
	return mi
}

// drop removes the candidate at i (order is irrelevant: oldest rescans).
func drop(cs []cand, i int) []cand {
	cs[i] = cs[len(cs)-1]
	return cs[:len(cs)-1]
}

// classify is the one statement of FR-FCFS+Cap's per-bank rules. For an
// occupied bank of q under the bank's current row state it answers which
// request is the bank's oldest uncapped row-hit (hit; -1: none, or an
// older conflict has been bypassed Cap times and hits are no longer
// preferred) and which request's row command comes next (next; -1: none,
// or refresh or a queued preventive action owns the bank) — with open
// true that command is the PRE ahead of the bank's oldest conflict, with
// open false the ACT of a closed bank's oldest request. schedule issues
// what classify names, earliestDemand asks when it becomes legal; neither
// restates a rule.
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
// visiting only occupied banks whose device timing allows a command now.
// Returns true if a command issued. Command-for-command identical to the
// seed tree's full-queue scan (see refsched_test.go and the differential
// tests that pin the equivalence).
func (c *Controller) schedule(q *readyQueue) bool {
	// One walk over the occupied banks collects both passes' candidates
	// from classify. Banks blocked by refresh/RFM/VRR/MIG would fail every
	// CanIssue and are pruned up front; PRAC back-off pauses new
	// activations, not precharges.
	cols, rows := c.colCands[:0], c.rowCands[:0]
	backoff := c.now < c.backoffUntil
	for _, b := range q.active {
		bank := int(b)
		if c.dev.BankBlockedUntil(bank) > c.now {
			continue
		}
		hit, next, open := c.classify(q, bank)
		reqs := q.banks[bank].reqs
		if hit >= 0 {
			cols = append(cols, cand{seq: reqs[hit].seq, bank: b, idx: int32(hit)})
		}
		if next >= 0 && (open || !backoff) {
			rows = append(rows, cand{seq: reqs[next].seq, bank: b, idx: int32(next), open: open})
		}
	}
	c.colCands, c.rowCands = cols, rows

	// First pass: oldest issuable row-hit column command. CanIssue's
	// verdict is bank-wide, so a failure moves on to the next bank's hit.
	for len(cols) > 0 {
		i := oldest(cols)
		cd := cols[i]
		bank := int(cd.bank)
		fb := &q.banks[bank]
		req := fb.reqs[cd.idx]
		cmd := columnCmd(req)
		if !c.dev.CanIssue(cmd, req.Addr, c.now) {
			cols = drop(cols, i)
			continue
		}
		res := c.dev.Issue(cmd, req.Addr, c.now)
		if req.Thread >= 0 && !req.opened {
			c.stats.RowHits[req.Thread]++
		}
		if f := fb.confIdx; f >= 0 && int32(f) < cd.idx {
			c.capCount[bank]++
		}
		q.removeAt(bank, int(cd.idx))
		c.completeColumn(req, res)
		return true
	}

	// Second pass: the oldest request's row command, oldest first across
	// banks. A failed attempt exhausts its bank — unless an ActGate is
	// installed, whose evaluations must keep the flat scan's order and
	// count: a closed bank then advances to its next request, on a
	// rejection and on a CanIssue(ACT) failure alike.
	for len(rows) > 0 {
		i := oldest(rows)
		cd := &rows[i]
		bank := int(cd.bank)
		fb := &q.banks[bank]
		if cd.open {
			pre := dram.Addr{Bank: bank}
			if c.dev.CanIssue(dram.CmdPRE, pre, c.now) {
				c.dev.Issue(dram.CmdPRE, pre, c.now)
				c.capCount[bank] = 0
				return true
			}
		} else {
			req := fb.reqs[cd.idx]
			if c.actGate != nil && !c.actGate(bank, req.Addr.Row, req.Thread, c.now) {
				c.stats.GatedACTs++
			} else if c.dev.CanIssue(dram.CmdACT, req.Addr, c.now) {
				c.issueACT(req, bank)
				return true
			}
			if c.actGate != nil && int(cd.idx)+1 < len(fb.reqs) {
				cd.idx++
				cd.seq = fb.reqs[cd.idx].seq
				continue
			}
		}
		rows = drop(rows, i) // PRE and ACT legality ignore the row: bank exhausted
	}
	return false
}

// earliestDemand is one occupied bank's share of earliestCommand: when
// what classify names becomes legal. PRAC back-off holds the ACT, and only
// the ACT, until backoffUntil.
func (c *Controller) earliestDemand(q *readyQueue, bank int) int64 {
	hit, next, open := c.classify(q, bank)
	reqs := q.banks[bank].reqs
	at := dram.Never
	if hit >= 0 {
		at = c.dev.EarliestIssue(columnCmd(reqs[hit]), reqs[hit].Addr)
	}
	if next >= 0 && open {
		at = min(at, c.dev.EarliestIssue(dram.CmdPRE, dram.Addr{Bank: bank}))
	} else if next >= 0 {
		at = min(at, max(c.dev.EarliestIssue(dram.CmdACT, reqs[next].Addr), c.backoffUntil))
	}
	return at
}

// issueACT performs a demand activation for req and fires the activate
// observers (inline or deferred into the event buffer).
func (c *Controller) issueACT(req *Request, bank int) {
	c.dev.Issue(dram.CmdACT, req.Addr, c.now)
	req.opened = true
	c.capCount[bank] = 0
	c.stats.TotalACTs++
	if req.Thread >= 0 {
		c.stats.DemandACTs[req.Thread]++
	}
	if c.events != nil {
		c.events.events = append(c.events.events,
			Event{Kind: EventActivate, Bank: bank, Row: req.Addr.Row, Thread: req.Thread, At: c.now})
		return
	}
	c.Activated(bank, req.Addr.Row, req.Thread, c.now)
}
