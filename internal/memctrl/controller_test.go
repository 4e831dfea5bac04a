package memctrl

import (
	"math/rand"
	"testing"

	"breakhammer/internal/dram"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	dev, err := dram.NewDevice(dram.Default(), dram.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	return New(DefaultConfig(), dev, 4)
}

// run advances the controller until pred returns true, failing after limit.
func run(t *testing.T, c *Controller, limit int64, pred func() bool) int64 {
	t.Helper()
	for cycle := int64(0); cycle < limit; cycle++ {
		c.Tick(cycle)
		if pred() {
			return cycle
		}
	}
	t.Fatalf("condition not reached within %d cycles", limit)
	return -1
}

func TestReadCompletesAndFills(t *testing.T) {
	c := newTestController(t)
	var filled []uint64
	c.SetFillFunc(func(line uint64) { filled = append(filled, line) })
	var lat int64 = -1
	c.SetLatencySink(func(thread int, cycles int64) { lat = cycles })

	if !c.EnqueueRead(0x1234, 1) {
		t.Fatal("enqueue rejected on empty queue")
	}
	end := run(t, c, 10000, func() bool { return len(filled) == 1 })
	if filled[0] != 0x1234 {
		t.Errorf("filled line %#x, want 0x1234", filled[0])
	}
	tm := c.Device().Timing()
	minLat := tm.RCD + tm.CL + tm.BL
	if lat < minLat {
		t.Errorf("latency %d < ACT+RCD+CL+BL = %d", lat, minLat)
	}
	if c.Stats().ReadsDone[1] != 1 {
		t.Error("ReadsDone not attributed to thread 1")
	}
	if c.Stats().DemandACTs[1] != 1 {
		t.Error("demand ACT not attributed to thread 1")
	}
	_ = end
}

func TestRowHitFasterThanConflict(t *testing.T) {
	c := newTestController(t)
	done := 0
	c.SetFillFunc(func(uint64) { done++ })

	// Two reads to the same row (MOP block): second should be a row hit.
	c.EnqueueRead(0, 0)
	c.EnqueueRead(1, 0)
	run(t, c, 10000, func() bool { return done == 2 })
	if got := c.Stats().RowHits[0]; got != 1 {
		t.Errorf("RowHits = %d, want 1", got)
	}
	if got := c.Stats().DemandACTs[0]; got != 1 {
		t.Errorf("DemandACTs = %d, want 1 (one row opens, second access hits)", got)
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newTestController(t)
	for i := 0; i < DefaultConfig().ReadQueue; i++ {
		if !c.EnqueueRead(uint64(i*64), 0) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if c.EnqueueRead(0xffff, 0) {
		t.Error("enqueue accepted above ReadQueue capacity")
	}
	for i := 0; i < DefaultConfig().WriteQueue; i++ {
		if !c.EnqueueWrite(uint64(i*64), -1) {
			t.Fatalf("write enqueue %d rejected below capacity", i)
		}
	}
	if c.EnqueueWrite(0xffff, -1) {
		t.Error("enqueue accepted above WriteQueue capacity")
	}
}

func TestWritesDrain(t *testing.T) {
	c := newTestController(t)
	for i := 0; i < 8; i++ {
		c.EnqueueWrite(uint64(i*64), -1)
	}
	run(t, c, 100000, func() bool { return c.Stats().WritesDone == 8 })
}

func TestRefreshHappensEveryREFI(t *testing.T) {
	c := newTestController(t)
	tm := c.Device().Timing()
	horizon := tm.REFI * 5
	for cycle := int64(0); cycle < horizon; cycle++ {
		c.Tick(cycle)
	}
	// 2 ranks, about 5 intervals each (staggered start), allow slack.
	if got := c.Stats().Refreshes; got < 8 || got > 12 {
		t.Errorf("Refreshes = %d over 5*tREFI, want ~10", got)
	}
}

func TestRefreshClosesOpenRow(t *testing.T) {
	c := newTestController(t)
	done := 0
	c.SetFillFunc(func(uint64) { done++ })
	// Open a row just before the refresh deadline and keep the queue empty:
	// refresh must still proceed (PRE then REF).
	c.EnqueueRead(0, 0)
	tm := c.Device().Timing()
	for cycle := int64(0); cycle < tm.REFI*3; cycle++ {
		c.Tick(cycle)
	}
	if c.Stats().Refreshes == 0 {
		t.Error("refresh never issued while a row was open")
	}
}

func TestVRRPriorityOverDemand(t *testing.T) {
	c := newTestController(t)
	done := 0
	c.SetFillFunc(func(uint64) { done++ })

	// Queue a demand read and a VRR on the same bank: VRR must issue and
	// the read must still complete afterwards.
	addr := c.Mapper().Map(0)
	c.RequestVRR(addr.Bank, []int{100, 101, 102, 103})
	c.EnqueueRead(0, 0)
	run(t, c, 50000, func() bool { return done == 1 && c.Stats().VRRs == 4 })
	if c.PendingPreventive() != 0 {
		t.Error("preventive queue not drained")
	}
}

func TestRFMBlocksBankAndCounts(t *testing.T) {
	c := newTestController(t)
	c.RequestRFM(3)
	run(t, c, 10000, func() bool { return c.Stats().RFMs == 1 })
}

func TestMigrationIssueAndCount(t *testing.T) {
	c := newTestController(t)
	c.RequestMigration(2, 50, 9000)
	run(t, c, 10000, func() bool { return c.Stats().Migrations == 1 })
}

func TestBackoffPausesActivations(t *testing.T) {
	c := newTestController(t)
	done := 0
	c.SetFillFunc(func(uint64) { done++ })
	tm := c.Device().Timing()

	c.Tick(0)
	c.RequestBackoff(0, 4)
	if c.stats.BackoffCycles != 4*tm.RFM {
		t.Errorf("BackoffCycles = %d, want %d", c.stats.BackoffCycles, 4*tm.RFM)
	}
	// A demand read to a different bank must not activate until back-off ends.
	line := uint64(4) // next MOP block: different bank
	c.EnqueueRead(line, 0)
	var actAt int64 = -1
	c.AddActivateHook(func(bank, row, thread int, now int64) { actAt = now })
	for cycle := int64(1); cycle < 4*tm.RFM+2000; cycle++ {
		c.Tick(cycle)
	}
	if actAt < 4*tm.RFM {
		t.Errorf("demand ACT at %d during back-off window (until %d)", actAt, 4*tm.RFM)
	}
	if done != 1 {
		t.Error("read never completed after back-off")
	}
}

func TestActGateDelaysActivation(t *testing.T) {
	c := newTestController(t)
	done := 0
	c.SetFillFunc(func(uint64) { done++ })
	var releaseAt int64 = 3000
	c.SetActGate(func(bank, row, thread int, now int64) bool { return now >= releaseAt })

	c.EnqueueRead(0, 0)
	end := run(t, c, 50000, func() bool { return done == 1 })
	if end < releaseAt {
		t.Errorf("read completed at %d despite gate releasing at %d", end, releaseAt)
	}
	if c.Stats().GatedACTs == 0 {
		t.Error("GatedACTs not counted")
	}
}

func TestActivateHookSeesThread(t *testing.T) {
	c := newTestController(t)
	var gotThread = -99
	var gotBank, gotRow int
	c.AddActivateHook(func(bank, row, thread int, now int64) {
		gotBank, gotRow, gotThread = bank, row, thread
	})
	c.EnqueueRead(0x40, 2)
	run(t, c, 10000, func() bool { return gotThread != -99 })
	want := c.Mapper().Map(0x40)
	if gotBank != want.Bank || gotRow != want.Row {
		t.Errorf("hook saw bank=%d row=%d, want %v", gotBank, gotRow, want)
	}
	if gotThread != 2 {
		t.Errorf("hook saw thread %d, want 2", gotThread)
	}
}

func TestFRFCFSCapLimitsReordering(t *testing.T) {
	c := newTestController(t)
	done := map[uint64]int64{}
	c.SetFillFunc(func(line uint64) { done[line] = c.now })

	// Oldest request: row conflict (different row, same bank).
	// Then a long stream of row hits to the open row. With Cap=4 the
	// conflict must be served after at most 4 bypassing hits.
	cfg := c.Device().Config()
	m := NewMOPMapper(cfg)
	// Find two lines in the same bank, different rows.
	base := uint64(0)
	baseAddr := m.Map(base)
	var conflict uint64
	for l := uint64(1); l < 1<<22; l++ {
		a := m.Map(l)
		if a.Bank == baseAddr.Bank && a.Row != baseAddr.Row {
			conflict = l
			break
		}
	}
	if conflict == 0 {
		t.Fatal("no conflicting line found")
	}
	// Open the base row first.
	c.EnqueueRead(base, 0)
	run(t, c, 10000, func() bool { return len(done) == 1 })

	// Now enqueue the conflict, then 10 hits to the open row.
	c.EnqueueRead(conflict, 1)
	hits := make([]uint64, 0, 10)
	for i := uint64(1); i <= 10; i++ {
		line := base + i // same MOP block + row under MOP for small i
		if m.Map(line).Row != baseAddr.Row || m.Map(line).Bank != baseAddr.Bank {
			continue
		}
		hits = append(hits, line)
		c.EnqueueRead(line, 0)
	}
	if len(hits) < 3 {
		t.Skip("not enough same-row lines under this mapping")
	}
	run(t, c, 100000, func() bool { return len(done) == 2+len(hits) })

	bypassed := 0
	for _, h := range hits {
		if done[h] < done[conflict] {
			bypassed++
		}
	}
	if bypassed > DefaultConfig().Cap {
		t.Errorf("%d row hits bypassed the conflict, cap is %d", bypassed, DefaultConfig().Cap)
	}
}

func TestWritebackThreadNotAttributed(t *testing.T) {
	c := newTestController(t)
	acts := 0
	var threads []int
	c.AddActivateHook(func(bank, row, thread int, now int64) {
		acts++
		threads = append(threads, thread)
	})
	c.EnqueueWrite(0x999940, -1)
	run(t, c, 100000, func() bool { return c.Stats().WritesDone == 1 })
	if acts != 1 {
		t.Fatalf("acts = %d, want 1", acts)
	}
	if threads[0] != -1 {
		t.Errorf("writeback ACT attributed to thread %d, want -1", threads[0])
	}
	// Per-thread demand counters untouched.
	for tid, n := range c.Stats().DemandACTs {
		if n != 0 {
			t.Errorf("DemandACTs[%d] = %d, want 0", tid, n)
		}
	}
}

// TestTickDoesNotAllocate guards the allocation-free path: with the read
// queue held full, writes arriving slowly enough for the write drain to
// come and go, and every kind of preventive action arriving now and then,
// a warmed-up controller's Tick, ungated and behind a stateful ActGate —
// admit's bank refills, the patches after demand, refresh and preventive
// commands, table rebuilds, the one-scan pick, the gate walk, read
// delivery — performs no heap allocation. The table is checked against a
// rebuild after every Tick (tableWatch, which allocates nothing either),
// and the measured batch must have patched a current table after every
// kind of command and after a rank turning refresh-pending.
func TestTickDoesNotAllocate(t *testing.T) {
	for _, gated := range []bool{false, true} {
		c := newTestController(t)
		c.SetFillFunc(func(uint64) {})
		if gated {
			evals := 0
			c.SetActGate(func(bank, row, thread int, now int64) bool {
				evals++
				return row%2 == 0 || evals%3 != 0
			})
		}
		h := prodHarness(c)
		w := watchTable(t, c, h, nil)
		rng := rand.New(rand.NewSource(1))
		now, line := int64(0), uint64(0)
		vrr := make([]int, 2)
		tick := func() {
			for i := 0; i < 4; i++ {
				addr := dram.Addr{Bank: rng.Intn(8) * 2, Row: rng.Intn(6) * 37, Col: rng.Intn(8)}
				if rng.Intn(128) == 0 {
					h.enqueueWrite(line, -1, addr)
				} else {
					h.enqueueRead(line, rng.Intn(4), addr)
				}
				line++
			}
			switch bank := rng.Intn(8) * 2; rng.Intn(2048) {
			case 0:
				h.requestRFM(bank)
			case 1:
				vrr[0], vrr[1] = rng.Intn(64), rng.Intn(64)
				h.requestVRR(bank, vrr)
			case 2:
				h.requestAux(bank)
			case 3:
				h.requestMig(bank, rng.Intn(64), 1024+rng.Intn(64))
			}
			h.tick(now)
			now++
		}
		// Warm up to every high-water mark first: each bank's FIFOs and
		// preventive FIFO grow once to a full queue's worth, then the
		// random stream runs a while.
		for b := 0; b < 8; b++ {
			for i := 0; i < DefaultConfig().ReadQueue; i++ {
				h.enqueueRead(line, 0, dram.Addr{Bank: b * 2, Row: i % 6 * 37})
				h.enqueueWrite(line, -1, dram.Addr{Bank: b * 2, Row: i % 6 * 37})
				h.requestRFM(b * 2)
				line++
			}
			for end := now + 200_000; now < end; now++ {
				h.tick(now)
			}
		}
		for i := 0; i < 50_000; i++ {
			tick()
		}
		// One run is a whole batch: AllocsPerRun divides its malloc count
		// by the runs in integers, which would round a rare allocation
		// away.
		const batch = 20_000
		w.covered = patchCoverage{}
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < batch; i++ {
				tick()
			}
		})
		if allocs != 0 {
			t.Errorf("gated=%v: %.0f allocations in %d Ticks, want 0", gated, allocs, batch)
		}
		if r, _ := c.QueueOccupancy(); r < DefaultConfig().ReadQueue-4 {
			t.Errorf("gated=%v: read queue holds %d: the profile does not keep it full", gated, r)
		}
		if gated && c.Stats().GatedACTs == 0 {
			t.Error("the gate never rejected: the gated walk is not exercised")
		}
		for k, n := range w.covered {
			if n == 0 {
				t.Errorf("gated=%v: no %s patched a current table in the measured batch: the pin does not cover that patch", gated, patchKindNames[k])
			}
		}
	}
}
