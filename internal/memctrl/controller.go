package memctrl

import "breakhammer/internal/dram"

// Config holds the memory-controller parameters (Table 1: 64-entry
// read/write request queues, FR-FCFS+Cap with Cap=4, MOP address mapping).
type Config struct {
	ReadQueue  int // read request queue capacity
	WriteQueue int // write request queue capacity
	WriteHi    int // start draining writes at this occupancy
	WriteLo    int // stop draining writes at this occupancy
	Cap        int // FR-FCFS column-over-row reordering cap
}

// DefaultConfig returns the Table 1 controller configuration.
func DefaultConfig() Config {
	return Config{ReadQueue: 64, WriteQueue: 64, WriteHi: 48, WriteLo: 16, Cap: 4}
}

// Request is one in-flight memory request. Requests are recycled through
// the controller's arena: a *Request is owned by the controller from
// enqueue until its completion callback has fired, and must not be
// retained by callbacks.
type Request struct {
	Line   uint64
	Thread int // hardware thread; -1 for system traffic (writebacks)
	Write  bool
	Arrive int64
	Addr   dram.Addr

	seq    uint64 // global arrival order; FR-FCFS ties break on this
	opened bool   // this request triggered the row activation itself
}

// ActivateHook observes every demand row activation. Mitigation mechanisms
// and BreakHammer register hooks; thread is -1 for writeback traffic.
type ActivateHook func(bank, row, thread int, now int64)

// ActGate delays demand activations (BlockHammer's row blacklisting): it
// returns the first cycle at which thread's activation of (bank, row) may
// issue, and an answer at or before now passes it. The answer must be a
// pure function of state that only the channel's activations change — the
// controller asks again after each ACT it issues and otherwise sleeps to
// the answer.
type ActGate func(bank, row, thread int, now int64) int64

// LatencySink receives the queuing+service latency (in cycles) of each
// completed read, attributed to the requesting thread.
type LatencySink func(thread int, cycles int64)

type prevAction struct {
	cmd dram.Command // CmdVRR, CmdRFM or CmdMIG
	row int
}

// Stats aggregates controller-level counters.
type Stats struct {
	DemandACTs    []int64 // per-thread demand activations (row-buffer misses)
	RowHits       []int64 // per-thread row-buffer hits
	ReadsDone     []int64 // per-thread completed reads
	WritesDone    int64
	Refreshes     int64
	VRRs          int64 // victim-row refreshes issued
	RFMs          int64
	Migrations    int64
	AuxAccesses   int64 // metadata accesses (Hydra table traffic)
	GatedACTs     int64 // demand ACTs whose row the ActGate held past the request's arrival
	TotalACTs     int64 // all activations including writebacks
	BackoffCycles int64 // cycles spent with the channel paused by PRAC back-off
}

// Add accumulates o into s: scalar counters are summed and per-thread
// slices are summed element-wise (s grows to o's length as needed). The
// memsys layer uses it to lift per-channel controller stats into merged
// system-level stats.
func (s *Stats) Add(o *Stats) {
	grow := func(dst *[]int64, n int) {
		for len(*dst) < n {
			*dst = append(*dst, 0)
		}
	}
	grow(&s.DemandACTs, len(o.DemandACTs))
	grow(&s.RowHits, len(o.RowHits))
	grow(&s.ReadsDone, len(o.ReadsDone))
	for i, v := range o.DemandACTs {
		s.DemandACTs[i] += v
	}
	for i, v := range o.RowHits {
		s.RowHits[i] += v
	}
	for i, v := range o.ReadsDone {
		s.ReadsDone[i] += v
	}
	s.WritesDone += o.WritesDone
	s.Refreshes += o.Refreshes
	s.VRRs += o.VRRs
	s.RFMs += o.RFMs
	s.Migrations += o.Migrations
	s.AuxAccesses += o.AuxAccesses
	s.GatedACTs += o.GatedACTs
	s.TotalACTs += o.TotalACTs
	s.BackoffCycles += o.BackoffCycles
}

type response struct {
	at  int64
	req *Request
}

// Controller owns one channel: it schedules DRAM commands for demand
// requests, periodic refresh, and mitigation-requested preventive actions.
// Demand requests live in per-bank ready-sets (see readyset.go) and all
// per-request storage is recycled (see arena.go), so the steady-state
// enqueue → schedule → complete path performs no heap allocation.
type Controller struct {
	cfg    Config
	dev    *dram.Device
	mapper AddressMapper

	// Device facts read on every tick, copied out of dev once. (The rank
	// count is len(nextRef).)
	banksPerRank int
	tREFI, tRFM  int64

	readQ  readyQueue
	writeQ readyQueue
	arena  reqArena
	seq    uint64 // next arrival sequence number

	responses respRing // FIFO: read data arrivals are monotonic in time
	fill      func(line uint64)
	latency   LatencySink

	// Activate observers, split so the common zero- and one-hook
	// configurations dispatch without ranging over a slice.
	hook0     ActivateHook
	hooksRest []ActivateHook
	actGate   ActGate

	// Refresh state, per rank.
	nextRef    []int64
	refPending []bool

	// Preventive actions, per global bank.
	prevQ       []prevFIFO
	prevPending int

	backoffUntil int64 // channel-wide ACT pause (PRAC alert back-off)

	functional func(bank int) // non-nil: preventive requests resolve here (SetFunctional)

	draining bool
	capCount []int // per-bank consecutive column-over-row reorders

	// The candidate table (see readyset.go): per bank of tabQ, what
	// classify names and when it becomes legal. schedule picks from it
	// and the sleep is its minimum; tabQ nil means stale. Nothing it reads
	// changes without passing one of its doors: an issued command patches
	// the entries it can move (patch, at every dram.Device.Issue call
	// site), a refresh deadline turning a rank pending refills the rank
	// (tryRefresh), admit refills the enqueued bank, and wake drops the
	// table. candidates rebuilds a dropped table, or one that covers the
	// queue the write drain no longer selects.
	tab  []bankCands
	tabQ *readyQueue

	// idleUntil is the controller's sleep: every Tick that runs the
	// scheduler leaves here the exact first cycle at which any command it
	// could pick next becomes legal (see earliestCommand), and Tick only
	// delivers read data until then. What can change that answer between
	// Ticks either folds itself in (an accepted enqueue, see admit) or
	// resets it to 0 through wake (a preventive or back-off request,
	// SkipTo).
	idleUntil int64

	now   int64 // current cycle, updated by Tick
	stats Stats
}

// New constructs a controller for the device. threads is the number of
// hardware threads for per-thread accounting.
func New(cfg Config, dev *dram.Device, threads int) *Controller {
	dcfg, t := dev.Config(), dev.Timing()
	banks, ranks := dcfg.TotalBanks(), dcfg.Ranks
	c := &Controller{
		cfg:          cfg,
		dev:          dev,
		mapper:       NewMOPMapper(dcfg),
		banksPerRank: dcfg.BanksPerRank(),
		tREFI:        t.REFI,
		tRFM:         t.RFM,
		readQ:        newReadyQueue(banks),
		writeQ:       newReadyQueue(banks),
		responses:    newRespRing(cfg.ReadQueue),
		nextRef:      make([]int64, ranks),
		refPending:   make([]bool, ranks),
		prevQ:        make([]prevFIFO, banks),
		capCount:     make([]int, banks),
		tab:          make([]bankCands, banks),
		backoffUntil: -1,
	}
	for r := 0; r < ranks; r++ {
		// Stagger the per-rank refresh schedule.
		c.nextRef[r] = t.REFI * int64(r+1) / int64(ranks)
	}
	c.stats = Stats{
		DemandACTs: make([]int64, threads),
		RowHits:    make([]int64, threads),
		ReadsDone:  make([]int64, threads),
	}
	return c
}

// SetFillFunc installs the LLC fill callback invoked when read data
// arrives.
func (c *Controller) SetFillFunc(f func(line uint64)) { c.fill = f }

// SetMapper replaces the address mapper (default: MOP). It must be called
// before any request is enqueued.
func (c *Controller) SetMapper(m AddressMapper) {
	if c.readQ.count > 0 || c.writeQ.count > 0 {
		panic("memctrl: SetMapper after requests were enqueued")
	}
	c.mapper = m
}

// SetLatencySink installs the read-latency recorder.
func (c *Controller) SetLatencySink(s LatencySink) { c.latency = s }

// AddActivateHook registers an observer of demand activations.
func (c *Controller) AddActivateHook(h ActivateHook) {
	if c.hook0 == nil {
		c.hook0 = h
		return
	}
	c.hooksRest = append(c.hooksRest, h)
}

// Activated dispatches a row activation to the registered hooks, inline and
// in registration order. Every activation the hooks see enters here: the
// controller's own demand ACTs, and the functional fast-forward's
// shadow-row activations (internal/sim's sampled loop), which therefore
// reach the mechanism, BreakHammer and any other observer in the detailed
// order. It touches no counter.
func (c *Controller) Activated(bank, row, thread int, now int64) {
	if c.hook0 == nil {
		return
	}
	c.hook0(bank, row, thread, now)
	for _, h := range c.hooksRest {
		h(bank, row, thread, now)
	}
}

// SetActGate installs an activation delay (BlockHammer).
func (c *Controller) SetActGate(g ActGate) {
	c.actGate = g
	c.wake()
}

// wake ends the controller's sleep and drops the candidate table: the next
// Tick runs the full scheduler on a rebuilt table.
func (c *Controller) wake() { c.idleUntil, c.tabQ = 0, nil }

// Stats returns the controller counters.
func (c *Controller) Stats() *Stats { return &c.stats }

// Device returns the attached DRAM device.
func (c *Controller) Device() *dram.Device { return c.dev }

// Mapper returns the address mapper.
func (c *Controller) Mapper() AddressMapper { return c.mapper }

// QueueOccupancy reports (reads, writes) currently queued.
func (c *Controller) QueueOccupancy() (int, int) { return c.readQ.count, c.writeQ.count }

// EnqueueRead implements cache.Backend. It returns false when the read
// queue is full.
func (c *Controller) EnqueueRead(line uint64, thread int) bool {
	return c.EnqueueReadAddr(line, thread, c.mapper.Map(line))
}

// EnqueueWrite implements cache.Backend. It returns false when the write
// queue is full.
func (c *Controller) EnqueueWrite(line uint64, thread int) bool {
	return c.EnqueueWriteAddr(line, thread, c.mapper.Map(line))
}

// EnqueueReadAddr enqueues a read whose DRAM location was already decoded
// (the memsys layer maps once at the system level and routes by channel).
func (c *Controller) EnqueueReadAddr(line uint64, thread int, addr dram.Addr) bool {
	if c.readQ.count >= c.cfg.ReadQueue {
		return false
	}
	r := c.arena.get()
	r.Line, r.Thread, r.Arrive, r.Addr = line, thread, c.now, addr
	r.seq = c.seq
	c.seq++
	c.readQ.push(addr.Bank, r)
	c.admit(&c.readQ, addr.Bank)
	return true
}

// EnqueueWriteAddr enqueues a pre-decoded write.
func (c *Controller) EnqueueWriteAddr(line uint64, thread int, addr dram.Addr) bool {
	if c.writeQ.count >= c.cfg.WriteQueue {
		return false
	}
	r := c.arena.get()
	r.Line, r.Thread, r.Write, r.Arrive, r.Addr = line, thread, true, c.now, addr
	r.seq = c.seq
	c.seq++
	c.writeQ.push(addr.Bank, r)
	c.admit(&c.writeQ, addr.Bank)
	return true
}

// ---- Preventive-action interface (implemented for internal/mitigation) ----

// RequestVRR queues targeted victim-row refreshes on a bank.
func (c *Controller) RequestVRR(bank int, rows []int) {
	for _, r := range rows {
		c.pushPreventive(bank, prevAction{cmd: dram.CmdVRR, row: r})
	}
}

// pushPreventive is the one door every preventive action enters by.
func (c *Controller) pushPreventive(bank int, a prevAction) {
	if c.functional != nil {
		c.functional(bank)
		return
	}
	c.prevQ[bank].push(a)
	c.prevPending++
	c.wake()
}

// RequestRFM queues one refresh-management command on a bank.
func (c *Controller) RequestRFM(bank int) {
	c.pushPreventive(bank, prevAction{cmd: dram.CmdRFM})
}

// RequestAux queues one auxiliary metadata access (Hydra's in-DRAM
// row-count table reads/writebacks) on a bank.
func (c *Controller) RequestAux(bank int) {
	c.pushPreventive(bank, prevAction{cmd: dram.CmdAUX})
}

// RequestMigration queues an AQUA row migration on a bank. The single
// CmdMIG models the whole swap — reading srcRow and re-activating and
// writing the destination — because AQUA's quarantine region lives in the
// same bank (see internal/mitigation/aqua.go): the device blocks the bank
// for 2*tRC plus a full row's column transfers, which covers both row
// cycles. dstRow therefore selects the quarantine slot but adds no
// separate command; TestMigrationCommandCounts pins this contract.
func (c *Controller) RequestMigration(bank, srcRow, dstRow int) {
	c.pushPreventive(bank, prevAction{cmd: dram.CmdMIG, row: srcRow})
}

// RequestBackoff models a PRAC alert: the channel stops issuing new
// demand activations while nRFM refresh-management commands execute on the
// alerting bank.
func (c *Controller) RequestBackoff(bank, nRFM int) {
	if c.functional != nil {
		return // a back-off pauses the channel; it does not disturb row state
	}
	until := c.now + int64(nRFM)*c.tRFM
	if until > c.backoffUntil {
		if c.backoffUntil > c.now {
			c.stats.BackoffCycles += until - c.backoffUntil
		} else {
			c.stats.BackoffCycles += until - c.now
		}
		c.backoffUntil = until
		c.wake()
	}
	for i := 0; i < nRFM; i++ {
		c.RequestRFM(bank)
	}
}

// SetFunctional switches the preventive-action interface to functional
// resolution (closed non-nil) and back (nil). internal/sim's sampled loop
// sets it around a fast-forward span, when the controller is not ticking
// and a queued command would never drain: each requested VRR, RFM,
// migration or metadata access instead reports its bank to closed — the
// action leaves the demand row closed, the one side effect a functional
// model of row state can see — and a back-off is dropped.
func (c *Controller) SetFunctional(closed func(bank int)) { c.functional = closed }

// PendingPreventive reports the number of queued preventive actions.
func (c *Controller) PendingPreventive() int { return c.prevPending }

// SkipTo realigns the periodic-refresh schedule after a functional
// fast-forward jump (internal/sim's sampled loop): each rank's next
// refresh deadline advances to its first schedule slot at or after now,
// preserving the per-rank stagger phase. Without this, the first
// detailed cycles after a long jump would replay every refresh of the
// skipped span back to back — wrong in time, and a warm-up distortion.
// The sampled loop performs the skipped span's refreshes functionally
// instead (closing its row state every tREFI).
func (c *Controller) SkipTo(now int64) {
	for r := range c.nextRef {
		if c.nextRef[r] < now {
			behind := (now - c.nextRef[r] + c.tREFI - 1) / c.tREFI
			c.nextRef[r] += behind * c.tREFI
		}
	}
	c.wake()
}

// Tick advances the controller by one command-bus cycle: it delivers
// completed read data, then issues at most one DRAM command chosen by
// priority: refresh > preventive actions > demand requests (FR-FCFS+Cap).
// It reports whether the controller made progress (delivered data or
// issued a command); the skip-ahead loop uses this to detect stalls.
//
// Having run the scheduler, Tick puts the controller to sleep until
// earliestCommand: the scheduling passes are pure functions of queue,
// refresh, preventive and device state, and until that cycle re-running
// them on the same state could only reach the verdict "nothing legal" —
// an ActGate's answers included, which only an activation moves.
// Any lower bound would keep every Tick's verdict identical; an exact one
// means the controller wakes only to issue. The command a Tick issues has
// already patched the candidate table, so the bound reads it as it is.
func (c *Controller) Tick(nowCycle int64) bool {
	c.now = nowCycle
	progress := c.deliverResponses() // a fill may enqueue a writeback and end the sleep
	if nowCycle < c.idleUntil {
		// The one thing a command-less scheduler run still commits: the
		// write-drain flag, which tryDemand re-evaluates against the
		// occupancies on every tick that gets that far.
		c.draining = c.drainNext()
		return progress
	}
	if c.tryRefresh() || c.tryPreventive() || c.tryDemand() {
		progress = true
	}
	c.idleUntil = c.earliestCommand()
	return progress
}

func (c *Controller) deliverResponses() bool {
	delivered := false
	for c.responses.len() > 0 && c.responses.front().at <= c.now {
		delivered = true
		r := c.responses.pop()
		c.stats.ReadsDone[r.req.Thread]++
		if c.latency != nil {
			c.latency(r.req.Thread, r.at-r.req.Arrive)
		}
		if c.fill != nil {
			c.fill(r.req.Line)
		}
		c.arena.put(r.req)
	}
	return delivered
}

// tryRefresh advances per-rank refresh. Returns true if a command issued.
func (c *Controller) tryRefresh() bool {
	for rank := range c.nextRef {
		if !c.refPending[rank] && c.now >= c.nextRef[rank] {
			c.refPending[rank] = true
			c.refillRank(rank) // the rank's banks lose their row commands
		}
		if !c.refPending[rank] {
			continue
		}
		base := rank * c.banksPerRank
		refAddr := dram.Addr{Bank: base}
		if c.dev.CanIssue(dram.CmdREF, refAddr, c.now) {
			c.dev.Issue(dram.CmdREF, refAddr, c.now)
			c.stats.Refreshes++
			c.refPending[rank] = false
			c.nextRef[rank] += c.tREFI
			c.patch(dram.CmdREF, base)
			return true
		}
		// Close any open row in the rank so REF becomes legal.
		for b := base; b < base+c.banksPerRank; b++ {
			if _, open := c.dev.OpenRow(b); !open {
				continue
			}
			pre := dram.Addr{Bank: b}
			if c.dev.CanIssue(dram.CmdPRE, pre, c.now) {
				c.dev.Issue(dram.CmdPRE, pre, c.now)
				c.patch(dram.CmdPRE, b)
				return true
			}
		}
	}
	return false
}

// tryPreventive issues queued mitigation actions. Returns true if a
// command issued.
func (c *Controller) tryPreventive() bool {
	if c.prevPending == 0 {
		return false
	}
	for bank := range c.prevQ {
		if c.prevQ[bank].len() == 0 {
			continue
		}
		if c.dev.BankBlockedUntil(bank) > c.now {
			continue
		}
		if _, open := c.dev.OpenRow(bank); open {
			pre := dram.Addr{Bank: bank}
			if c.dev.CanIssue(dram.CmdPRE, pre, c.now) {
				c.dev.Issue(dram.CmdPRE, pre, c.now)
				c.patch(dram.CmdPRE, bank)
				return true
			}
			continue
		}
		act := c.prevQ[bank].peek()
		addr := dram.Addr{Bank: bank, Row: act.row}
		if !c.dev.CanIssue(act.cmd, addr, c.now) {
			continue
		}
		c.dev.Issue(act.cmd, addr, c.now)
		c.prevQ[bank].pop()
		c.prevPending--
		switch act.cmd {
		case dram.CmdVRR:
			c.stats.VRRs++
		case dram.CmdRFM:
			c.stats.RFMs++
		case dram.CmdMIG:
			c.stats.Migrations++
		case dram.CmdAUX:
			c.stats.AuxAccesses++
		}
		c.patch(act.cmd, bank)
		return true
	}
	return false
}

// tryDemand schedules demand requests with FR-FCFS+Cap. Returns true if
// a command issued.
func (c *Controller) tryDemand() bool {
	var q *readyQueue
	q, c.draining = c.pickQueue()
	if q == nil {
		return false
	}
	c.candidates(q)
	return c.schedule(q)
}

// pickQueue applies the write-drain hysteresis to the current occupancies
// and returns the queue the scheduler serves (nil when both are empty) and
// the new draining flag, without storing it: tryDemand commits the flag,
// the sleep bookkeeping only asks.
func (c *Controller) pickQueue() (*readyQueue, bool) {
	draining := c.drainNext()
	if draining || c.readQ.count == 0 {
		if c.writeQ.count > 0 {
			return &c.writeQ, draining
		}
		if c.readQ.count == 0 {
			return nil, draining
		}
	}
	return &c.readQ, draining
}

// drainNext is the write-drain hysteresis: the draining flag after one
// more evaluation against the current write-queue occupancy.
func (c *Controller) drainNext() bool {
	switch {
	case c.writeQ.count <= c.cfg.WriteLo:
		return false
	case c.writeQ.count >= c.cfg.WriteHi:
		return true
	}
	return c.draining
}

// earliestCommand returns the first cycle after c.now at which Tick could
// issue a command, given that nothing calls wake or admit in between: the
// minimum of dram.Device.EarliestIssue over exactly the candidates
// tryRefresh and tryPreventive consider (two short mirrors, below) and
// the ones schedule picks from — the candidate table of the queue the
// next tryDemand selects (rebuilt here only if it is stale or covers the
// other queue), so there is nothing to mirror. It never over-estimates
// (that would change simulations); an answer at or before c.now just
// means no sleep. It is exact up to one case, a refresh deadline, where
// the rank turns pending but its REF may still have to wait — the Tick
// there recomputes.
func (c *Controller) earliestCommand() int64 {
	at := dram.Never
	// tryRefresh: a rank turns pending at its deadline; a pending rank
	// issues REF, or a PRE to one of its open banks.
	for rank, pending := range c.refPending {
		if !pending {
			at = min(at, c.nextRef[rank])
			continue
		}
		base := rank * c.banksPerRank
		at = min(at, c.dev.EarliestIssue(dram.CmdREF, dram.Addr{Bank: base}))
		for b := base; b < base+c.banksPerRank; b++ {
			if _, open := c.dev.OpenRow(b); open {
				at = min(at, c.dev.EarliestIssue(dram.CmdPRE, dram.Addr{Bank: b}))
			}
		}
	}
	// tryPreventive: each bank's head action, or the PRE that clears it.
	if c.prevPending > 0 {
		for bank := range c.prevQ {
			if c.prevQ[bank].len() == 0 {
				continue
			}
			cmd, addr := dram.CmdPRE, dram.Addr{Bank: bank}
			if _, open := c.dev.OpenRow(bank); !open {
				act := c.prevQ[bank].peek()
				cmd, addr.Row = act.cmd, act.row
			}
			at = min(at, c.dev.EarliestIssue(cmd, addr))
		}
	}
	// schedule, on the queue the next tryDemand selects.
	if q, _ := c.pickQueue(); q != nil {
		c.candidates(q)
		for _, b := range q.active {
			e := &c.tab[b]
			row := e.row.at
			if c.actGate != nil && !e.row.open && row != dram.Never {
				row = max(row, c.gatedAt(q, int(b)))
			}
			at = min(at, e.col.at, row)
		}
	}
	return at
}

// admit folds a request just pushed onto q's bank into the candidate
// table and the sleep, asleep or awake. A request appended to a bank can
// only change that bank's entries (it is younger than every request
// already there, and classify reads no other bank), so refilling the bank
// is a full rebuild's answer, and the bound is the minimum of the old one
// and the bank's new share (under an ActGate it may be early: one more
// scheduler run, never a late one) — unless the table is stale or the
// enqueue flips which queue tryDemand selects (wake), or lands on the
// queue it does not (nothing to do).
func (c *Controller) admit(q *readyQueue, bank int) {
	if picked, _ := c.pickQueue(); picked != c.tabQ {
		c.wake()
	} else if q == picked {
		c.idleUntil = min(c.idleUntil, c.fillBank(q, bank))
	}
}

// NextWake returns the next cycle at which this controller's Tick could
// make progress, assuming the immediately preceding Tick made none: the
// front read-data arrival or the end of the controller's sleep, whichever
// is first. The skip-ahead loop jumps to the minimum NextWake across
// components during globally idle spans. A controller that is not asleep
// (something woke it since its last Tick) answers now+1.
func (c *Controller) NextWake(now int64) int64 {
	next := c.idleUntil
	if c.responses.len() > 0 {
		next = min(next, c.responses.front().at)
	}
	return max(next, now+1)
}

// completeColumn finalizes a column command: reads schedule a response,
// writes complete immediately (and release their request to the arena).
func (c *Controller) completeColumn(req *Request, res dram.IssueResult) {
	if req.Write {
		c.stats.WritesDone++
		c.arena.put(req)
		return
	}
	c.responses.push(response{at: res.DataAt, req: req})
}
