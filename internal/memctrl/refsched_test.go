package memctrl

// This file freezes the seed tree's memory-controller scheduler — the
// full-queue-scan FR-FCFS+Cap implementation that predates the
// incremental ready-set rework — as an executable oracle. The
// differential tests in scheduler_test.go drive the production
// Controller and this reference side by side with identical request
// streams and assert byte-identical command streams, callbacks and
// stats. Do not "fix" or optimise this copy: its value is that it never
// changes. One deliberate change since the seed follows ActGate's
// contract: the gate answers when an activation may issue (a cycle, not a
// verdict), and GatedACTs counts, at issue, the demand ACTs whose row the
// gate held past the request's arrival instead of every rejected poll —
// a count that depended on how often the gate was asked.

import "breakhammer/internal/dram"

type refRequest struct {
	Line   uint64
	Thread int
	Write  bool
	Arrive int64
	Addr   dram.Addr

	opened bool
}

type refPrevAction struct {
	cmd dram.Command
	row int
}

type refResponse struct {
	at  int64
	req *refRequest
}

// refController is the seed tree's Controller, verbatim except for
// renames and the removal of the EventBuffer mode (the oracle always
// delivers callbacks inline; deferred-event replay order is covered by
// the memsys/sim determinism tests).
type refController struct {
	cfg    Config
	dev    *dram.Device
	mapper AddressMapper

	readQ  []*refRequest
	writeQ []*refRequest

	responses []refResponse
	fill      func(line uint64)
	latency   LatencySink

	hooks   []ActivateHook
	actGate ActGate

	nextRef    []int64
	refPending []bool

	prevQ       [][]refPrevAction
	prevPending int

	backoffUntil int64

	draining bool
	capCount []int

	now   int64
	stats Stats
}

func newRefController(cfg Config, dev *dram.Device, threads int) *refController {
	banks := dev.Config().TotalBanks()
	ranks := dev.Config().Ranks
	c := &refController{
		cfg:          cfg,
		dev:          dev,
		mapper:       NewMOPMapper(dev.Config()),
		nextRef:      make([]int64, ranks),
		refPending:   make([]bool, ranks),
		prevQ:        make([][]refPrevAction, banks),
		capCount:     make([]int, banks),
		backoffUntil: -1,
	}
	t := dev.Timing()
	for r := 0; r < ranks; r++ {
		c.nextRef[r] = t.REFI * int64(r+1) / int64(ranks)
	}
	c.stats = Stats{
		DemandACTs: make([]int64, threads),
		RowHits:    make([]int64, threads),
		ReadsDone:  make([]int64, threads),
	}
	return c
}

func (c *refController) SetFillFunc(f func(line uint64)) { c.fill = f }
func (c *refController) SetLatencySink(s LatencySink)    { c.latency = s }
func (c *refController) AddActivateHook(h ActivateHook)  { c.hooks = append(c.hooks, h) }
func (c *refController) SetActGate(g ActGate)            { c.actGate = g }
func (c *refController) Stats() *Stats                   { return &c.stats }
func (c *refController) QueueOccupancy() (int, int)      { return len(c.readQ), len(c.writeQ) }
func (c *refController) PendingPreventive() int          { return c.prevPending }

func (c *refController) EnqueueRead(line uint64, thread int) bool {
	return c.EnqueueReadAddr(line, thread, c.mapper.Map(line))
}

func (c *refController) EnqueueWrite(line uint64, thread int) bool {
	return c.EnqueueWriteAddr(line, thread, c.mapper.Map(line))
}

func (c *refController) EnqueueReadAddr(line uint64, thread int, addr dram.Addr) bool {
	if len(c.readQ) >= c.cfg.ReadQueue {
		return false
	}
	c.readQ = append(c.readQ, &refRequest{
		Line: line, Thread: thread, Arrive: c.now, Addr: addr,
	})
	return true
}

func (c *refController) EnqueueWriteAddr(line uint64, thread int, addr dram.Addr) bool {
	if len(c.writeQ) >= c.cfg.WriteQueue {
		return false
	}
	c.writeQ = append(c.writeQ, &refRequest{
		Line: line, Thread: thread, Write: true, Arrive: c.now, Addr: addr,
	})
	return true
}

func (c *refController) RequestVRR(bank int, rows []int) {
	for _, r := range rows {
		c.prevQ[bank] = append(c.prevQ[bank], refPrevAction{cmd: dram.CmdVRR, row: r})
		c.prevPending++
	}
}

func (c *refController) RequestRFM(bank int) {
	c.prevQ[bank] = append(c.prevQ[bank], refPrevAction{cmd: dram.CmdRFM})
	c.prevPending++
}

func (c *refController) RequestAux(bank int) {
	c.prevQ[bank] = append(c.prevQ[bank], refPrevAction{cmd: dram.CmdAUX})
	c.prevPending++
}

func (c *refController) RequestMigration(bank, srcRow, dstRow int) {
	c.prevQ[bank] = append(c.prevQ[bank], refPrevAction{cmd: dram.CmdMIG, row: srcRow})
	c.prevPending++
}

func (c *refController) RequestBackoff(bank, nRFM int) {
	t := c.dev.Timing()
	until := c.now + int64(nRFM)*t.RFM
	if until > c.backoffUntil {
		if c.backoffUntil > c.now {
			c.stats.BackoffCycles += until - c.backoffUntil
		} else {
			c.stats.BackoffCycles += until - c.now
		}
		c.backoffUntil = until
	}
	for i := 0; i < nRFM; i++ {
		c.RequestRFM(bank)
	}
}

func (c *refController) Tick(nowCycle int64) bool {
	c.now = nowCycle
	progress := c.deliverResponses()

	switch {
	case c.tryRefresh():
		return true
	case c.tryPreventive():
		return true
	case c.tryDemand():
		return true
	}
	return progress
}

func (c *refController) deliverResponses() bool {
	delivered := false
	for len(c.responses) > 0 && c.responses[0].at <= c.now {
		delivered = true
		r := c.responses[0]
		c.responses = c.responses[1:]
		c.stats.ReadsDone[r.req.Thread]++
		if c.latency != nil {
			c.latency(r.req.Thread, r.at-r.req.Arrive)
		}
		if c.fill != nil {
			c.fill(r.req.Line)
		}
	}
	return delivered
}

func (c *refController) tryRefresh() bool {
	dcfg := c.dev.Config()
	for rank := 0; rank < dcfg.Ranks; rank++ {
		if !c.refPending[rank] && c.now >= c.nextRef[rank] {
			c.refPending[rank] = true
		}
		if !c.refPending[rank] {
			continue
		}
		base := rank * dcfg.BanksPerRank()
		refAddr := dram.Addr{Bank: base}
		if c.dev.CanIssue(dram.CmdREF, refAddr, c.now) {
			c.dev.Issue(dram.CmdREF, refAddr, c.now)
			c.stats.Refreshes++
			c.refPending[rank] = false
			c.nextRef[rank] += c.dev.Timing().REFI
			return true
		}
		for b := base; b < base+dcfg.BanksPerRank(); b++ {
			if _, open := c.dev.OpenRow(b); !open {
				continue
			}
			pre := dram.Addr{Bank: b}
			if c.dev.CanIssue(dram.CmdPRE, pre, c.now) {
				c.dev.Issue(dram.CmdPRE, pre, c.now)
				return true
			}
		}
	}
	return false
}

func (c *refController) tryPreventive() bool {
	if c.prevPending == 0 {
		return false
	}
	for bank := range c.prevQ {
		if len(c.prevQ[bank]) == 0 {
			continue
		}
		if c.dev.BankBlockedUntil(bank) > c.now {
			continue
		}
		if _, open := c.dev.OpenRow(bank); open {
			pre := dram.Addr{Bank: bank}
			if c.dev.CanIssue(dram.CmdPRE, pre, c.now) {
				c.dev.Issue(dram.CmdPRE, pre, c.now)
				return true
			}
			continue
		}
		act := c.prevQ[bank][0]
		addr := dram.Addr{Bank: bank, Row: act.row}
		if !c.dev.CanIssue(act.cmd, addr, c.now) {
			continue
		}
		c.dev.Issue(act.cmd, addr, c.now)
		c.prevQ[bank] = c.prevQ[bank][1:]
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
		return true
	}
	return false
}

func (c *refController) tryDemand() bool {
	if len(c.writeQ) >= c.cfg.WriteHi {
		c.draining = true
	}
	if len(c.writeQ) <= c.cfg.WriteLo {
		c.draining = false
	}
	queue := &c.readQ
	if c.draining || len(c.readQ) == 0 {
		if len(c.writeQ) > 0 {
			queue = &c.writeQ
		} else if len(c.readQ) == 0 {
			return false
		}
	}
	return c.schedule(queue)
}

func (c *refController) schedule(queue *[]*refRequest) bool {
	q := *queue

	for i, req := range q {
		row, open := c.dev.OpenRow(req.Addr.Bank)
		if !open || row != req.Addr.Row {
			continue
		}
		if c.hasOlderConflict(q, i) && c.capCount[req.Addr.Bank] >= c.cfg.Cap {
			continue
		}
		cmd := dram.CmdRD
		if req.Write {
			cmd = dram.CmdWR
		}
		if !c.dev.CanIssue(cmd, req.Addr, c.now) {
			continue
		}
		res := c.dev.Issue(cmd, req.Addr, c.now)
		if req.Thread >= 0 && !req.opened {
			c.stats.RowHits[req.Thread]++
		}
		if c.hasOlderConflict(q, i) {
			c.capCount[req.Addr.Bank]++
		}
		c.completeColumn(req, res)
		*queue = append(q[:i], q[i+1:]...)
		return true
	}

	for _, req := range q {
		bank := req.Addr.Bank
		if c.dev.BankBlockedUntil(bank) > c.now {
			continue
		}
		if len(c.prevQ[bank]) > 0 || c.refPending[c.dev.RankOf(bank)] {
			continue
		}
		row, open := c.dev.OpenRow(bank)
		if open && row == req.Addr.Row {
			continue
		}
		if open {
			pre := dram.Addr{Bank: bank}
			if c.dev.CanIssue(dram.CmdPRE, pre, c.now) {
				c.dev.Issue(dram.CmdPRE, pre, c.now)
				c.capCount[bank] = 0
				return true
			}
			continue
		}
		if c.now < c.backoffUntil {
			continue
		}
		if c.actGate != nil && c.actGate(bank, req.Addr.Row, req.Thread, c.now) > c.now {
			continue
		}
		if !c.dev.CanIssue(dram.CmdACT, req.Addr, c.now) {
			continue
		}
		if c.actGate != nil && c.actGate(bank, req.Addr.Row, req.Thread, c.now) > req.Arrive {
			c.stats.GatedACTs++
		}
		c.dev.Issue(dram.CmdACT, req.Addr, c.now)
		req.opened = true
		c.capCount[bank] = 0
		c.stats.TotalACTs++
		if req.Thread >= 0 {
			c.stats.DemandACTs[req.Thread]++
		}
		for _, h := range c.hooks {
			h(bank, req.Addr.Row, req.Thread, c.now)
		}
		return true
	}
	return false
}

func (c *refController) completeColumn(req *refRequest, res dram.IssueResult) {
	if req.Write {
		c.stats.WritesDone++
		return
	}
	c.responses = append(c.responses, refResponse{at: res.DataAt, req: req})
}

func (c *refController) hasOlderConflict(q []*refRequest, i int) bool {
	bank := q[i].Addr.Bank
	for j := 0; j < i; j++ {
		if q[j].Addr.Bank == bank && q[j].Addr.Row != q[i].Addr.Row {
			return true
		}
	}
	return false
}
