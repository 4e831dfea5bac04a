package memctrl

import (
	"testing"

	"breakhammer/internal/dram"
)

func TestWriteDrainHysteresis(t *testing.T) {
	c := newTestController(t)
	// Fill the write queue past the high watermark with a reader present:
	// writes must drain even while reads keep arriving.
	for i := 0; i < DefaultConfig().WriteHi+4; i++ {
		if !c.EnqueueWrite(uint64(0x100000+i*64), -1) {
			t.Fatalf("write enqueue %d failed", i)
		}
	}
	c.EnqueueRead(0, 0)
	done := 0
	c.SetFillFunc(func(uint64) { done++ })
	run(t, c, 2_000_000, func() bool {
		return c.Stats().WritesDone >= int64(DefaultConfig().WriteHi) && done == 1
	})
}

func TestReadsPreferredWhenWritesFew(t *testing.T) {
	c := newTestController(t)
	var reads, writes int
	c.SetFillFunc(func(uint64) { reads++ })
	// A couple of writes below the low watermark plus a read: the read
	// must complete before the writes start draining en masse.
	c.EnqueueWrite(0x100040, -1)
	c.EnqueueWrite(0x100080, -1)
	c.EnqueueRead(0, 0)
	cycle := run(t, c, 100_000, func() bool { return reads == 1 })
	writes = int(c.Stats().WritesDone)
	if writes > 0 && cycle > 10_000 {
		t.Errorf("read starved behind a non-draining write queue")
	}
}

func TestResponsesDeliveredInOrder(t *testing.T) {
	c := newTestController(t)
	var order []uint64
	c.SetFillFunc(func(line uint64) { order = append(order, line) })
	// Same-bank different rows: strictly serialized, so fills must arrive
	// in the order the rows were served.
	m := c.Mapper()
	base := m.Map(0)
	var lines []uint64
	for l := uint64(1); l < 1<<22 && len(lines) < 3; l++ {
		a := m.Map(l)
		if a.Bank == base.Bank && a.Row != base.Row {
			lines = append(lines, l)
		}
	}
	c.EnqueueRead(0, 0)
	for _, l := range lines {
		c.EnqueueRead(l, 0)
	}
	run(t, c, 1_000_000, func() bool { return len(order) == 4 })
	if order[0] != 0 {
		t.Errorf("first fill = %#x, want the oldest request", order[0])
	}
}

func TestPreventiveDoesNotStarveForever(t *testing.T) {
	c := newTestController(t)
	done := 0
	c.SetFillFunc(func(uint64) { done++ })
	// A burst of VRRs on the demand bank: the read completes after them.
	addr := c.Mapper().Map(0)
	rows := make([]int, 20)
	for i := range rows {
		rows[i] = 1000 + i
	}
	c.RequestVRR(addr.Bank, rows)
	c.EnqueueRead(0, 0)
	tm := c.Device().Timing()
	horizon := int64(len(rows))*tm.RC + 100_000
	run(t, c, horizon, func() bool { return done == 1 })
	if c.Stats().VRRs != 20 {
		t.Errorf("VRRs = %d, want 20", c.Stats().VRRs)
	}
}

func TestRefreshStaggeredAcrossRanks(t *testing.T) {
	dev, err := dram.NewDevice(dram.Default(), dram.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), dev, 1)
	tm := dev.Timing()
	// Collect the first refresh per rank by polling the counters around
	// the expected stagger points.
	var firstRefCycle int64 = -1
	for cycle := int64(0); cycle < tm.REFI+10; cycle++ {
		c.Tick(cycle)
		if c.Stats().Refreshes == 1 && firstRefCycle < 0 {
			firstRefCycle = cycle
		}
	}
	if firstRefCycle < 0 {
		t.Fatal("no refresh within tREFI")
	}
	if firstRefCycle >= tm.REFI {
		t.Errorf("first rank refresh at %d, want staggered before tREFI=%d", firstRefCycle, tm.REFI)
	}
	if c.Stats().Refreshes < 2 {
		t.Errorf("both ranks should have refreshed within tREFI+: got %d", c.Stats().Refreshes)
	}
}

func TestAuxRequestIssuesAndCounts(t *testing.T) {
	c := newTestController(t)
	c.RequestAux(5)
	run(t, c, 10_000, func() bool { return c.Stats().AuxAccesses == 1 })
	if got := c.Device().Energy().Count(dram.CmdAUX); got != 1 {
		t.Errorf("AUX energy count = %d, want 1", got)
	}
}

func TestGatedActDoesNotBlockOtherRequests(t *testing.T) {
	c := newTestController(t)
	done := map[uint64]bool{}
	c.SetFillFunc(func(l uint64) { done[l] = true })
	// Gate bank of line 0 forever; a request to another bank proceeds.
	blockedBank := c.Mapper().Map(0).Bank
	c.SetActGate(func(bank, row, thread int, now int64) int64 {
		if bank == blockedBank {
			return dram.Never
		}
		return 0
	})
	c.EnqueueRead(0, 0)
	c.EnqueueRead(4, 1) // next MOP block: different bank
	run(t, c, 100_000, func() bool { return done[4] })
	if done[0] {
		t.Error("gated request completed")
	}
}

func TestQueueOccupancyReporting(t *testing.T) {
	c := newTestController(t)
	c.EnqueueRead(0, 0)
	c.EnqueueWrite(64, -1)
	r, w := c.QueueOccupancy()
	if r != 1 || w != 1 {
		t.Errorf("occupancy = (%d,%d), want (1,1)", r, w)
	}
}

// ---- Golden FR-FCFS+Cap ordering tests ----
//
// These pin the scheduler's observable decision order with crafted
// addresses (EnqueueReadAddr bypasses the mapper), so a scheduler
// rework lands against locked-in semantics rather than emergent ones.

// goldenController builds a controller around a recording device hook.
func goldenController(t *testing.T) (*Controller, *[]issueRec) {
	t.Helper()
	dev, err := dram.NewDevice(dram.Default(), dram.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	var issues []issueRec
	dev.SetIssueHook(func(cmd dram.Command, addr dram.Addr, now int64) {
		issues = append(issues, issueRec{cmd: cmd, bank: addr.Bank, row: addr.Row, col: addr.Col, at: now})
	})
	return New(DefaultConfig(), dev, 4), &issues
}

// TestCapExhaustionGoldenOrder: with an older row-conflict pending and a
// stream of row hits behind it, exactly Cap hits bypass the conflict,
// then the conflict is served (PRE + ACT), then the remaining hits
// reopen the first row and complete in FCFS order.
func TestCapExhaustionGoldenOrder(t *testing.T) {
	c, _ := goldenController(t)
	var order []uint64
	c.SetFillFunc(func(l uint64) { order = append(order, l) })

	// Open row 5 on bank 0.
	c.EnqueueReadAddr(100, 0, dram.Addr{Bank: 0, Row: 5, Col: 0})
	run(t, c, 10_000, func() bool { return len(order) == 1 })

	// Oldest: conflict on row 9. Then 8 hits on the open row 5.
	c.EnqueueReadAddr(200, 1, dram.Addr{Bank: 0, Row: 9, Col: 0})
	for i := 0; i < 8; i++ {
		c.EnqueueReadAddr(uint64(301+i), 0, dram.Addr{Bank: 0, Row: 5, Col: 1 + i})
	}
	run(t, c, 100_000, func() bool { return len(order) == 10 })

	want := []uint64{100, 301, 302, 303, 304, 200, 305, 306, 307, 308}
	for i, l := range want {
		if order[i] != l {
			t.Fatalf("fill order[%d] = %d, want %d (full order %v)", i, order[i], l, order)
		}
	}
	// 301-304 bypass as hits; 305 reopens row 5 itself (a demand ACT, not
	// a hit); 306-308 hit the reopened row: 7 hits total.
	if got := c.Stats().RowHits[0]; got != 7 {
		t.Errorf("RowHits[0] = %d, want 7", got)
	}
}

// TestWriteDrainHysteresisEntryExit: at WriteHi queued writes the
// controller enters drain mode and prefers writes over a pending read;
// it exits at WriteLo, so exactly WriteHi-WriteLo write bursts precede
// the read's column command.
func TestWriteDrainHysteresisEntryExit(t *testing.T) {
	c, issues := goldenController(t)
	cfg := DefaultConfig()
	done := 0
	c.SetFillFunc(func(uint64) { done++ })

	c.EnqueueReadAddr(999, 0, dram.Addr{Bank: 4, Row: 1, Col: 0})
	for i := 0; i < cfg.WriteHi; i++ {
		// Same row per bank pair, spread across banks: drains as hits.
		c.EnqueueWriteAddr(uint64(i), -1, dram.Addr{Bank: i % 2, Row: 3, Col: i / 2})
	}
	run(t, c, 1_000_000, func() bool {
		return done == 1 && c.Stats().WritesDone == int64(cfg.WriteHi)
	})

	var colCmds []dram.Command
	for _, rec := range *issues {
		if rec.cmd == dram.CmdRD || rec.cmd == dram.CmdWR {
			colCmds = append(colCmds, rec.cmd)
		}
	}
	rdAt := -1
	for i, cmd := range colCmds {
		if cmd == dram.CmdRD {
			rdAt = i
			break
		}
	}
	if rdAt != cfg.WriteHi-cfg.WriteLo {
		t.Errorf("read issued after %d writes, want exactly WriteHi-WriteLo = %d",
			rdAt, cfg.WriteHi-cfg.WriteLo)
	}
}

// TestPreventiveVsDemandBankOwnership: a bank with queued preventive
// actions is owned by them — demand requests on that bank must not
// activate until the preventive queue drains, while demand on other
// banks proceeds immediately.
func TestPreventiveVsDemandBankOwnership(t *testing.T) {
	c, issues := goldenController(t)
	var order []uint64
	c.SetFillFunc(func(l uint64) { order = append(order, l) })

	c.RequestVRR(0, []int{70, 71, 72, 73})
	c.EnqueueReadAddr(1, 0, dram.Addr{Bank: 0, Row: 5, Col: 0}) // owned bank
	c.EnqueueReadAddr(2, 1, dram.Addr{Bank: 4, Row: 5, Col: 0}) // free bank
	tm := c.Device().Timing()
	run(t, c, 8*tm.RC+100_000, func() bool { return len(order) == 2 })

	if order[0] != 2 || order[1] != 1 {
		t.Fatalf("fill order = %v, want the free bank's read (2) first", order)
	}
	// No demand ACT on bank 0 before its last VRR issued.
	lastVRR, firstACT0 := int64(-1), int64(-1)
	for _, rec := range *issues {
		if rec.cmd == dram.CmdVRR && rec.bank == 0 && rec.at > lastVRR {
			lastVRR = rec.at
		}
		if rec.cmd == dram.CmdACT && rec.bank == 0 && firstACT0 < 0 {
			firstACT0 = rec.at
		}
	}
	if lastVRR < 0 || firstACT0 < 0 {
		t.Fatal("expected both VRRs and a demand ACT on bank 0")
	}
	if firstACT0 < lastVRR {
		t.Errorf("demand ACT on bank 0 at %d preempted preventive work (last VRR at %d)",
			firstACT0, lastVRR)
	}
	if c.Stats().VRRs != 4 {
		t.Errorf("VRRs = %d, want 4", c.Stats().VRRs)
	}
}

// TestMigrationCommandCounts pins the command cost of a row migration:
// one RequestMigration issues exactly one CmdMIG (whose device-side
// blocking interval of 2*tRC + tCCDL per column covers activating both
// the source and the in-bank destination row — see RequestMigration),
// and consecutive migrations on one bank serialize on that interval.
func TestMigrationCommandCounts(t *testing.T) {
	c, issues := goldenController(t)
	c.RequestMigration(2, 50, 60_000)
	c.RequestMigration(2, 51, 60_001)
	tm := c.Device().Timing()
	dcfg := c.Device().Config()
	migSpan := 2*tm.RC + int64(dcfg.ColumnsPerRow)*tm.CCDL
	run(t, c, 4*migSpan, func() bool { return c.Stats().Migrations == 2 })

	var migs []issueRec
	for _, rec := range *issues {
		if rec.cmd == dram.CmdMIG {
			migs = append(migs, rec)
		}
	}
	if len(migs) != 2 {
		t.Fatalf("issued %d CmdMIG, want exactly 2 (one per RequestMigration)", len(migs))
	}
	if migs[0].bank != 2 || migs[0].row != 50 || migs[1].row != 51 {
		t.Errorf("migration commands target %+v, want bank 2 rows 50,51", migs)
	}
	if gap := migs[1].at - migs[0].at; gap < migSpan {
		t.Errorf("second migration issued %d cycles after the first, want >= %d (the bank is blocked for both row activations)",
			gap, migSpan)
	}
	if got := c.Device().Energy().Count(dram.CmdMIG); got != 2 {
		t.Errorf("CmdMIG energy count = %d, want 2", got)
	}
}
