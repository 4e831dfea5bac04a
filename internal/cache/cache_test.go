package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeBackend records enqueued requests and can simulate full queues.
type fakeBackend struct {
	reads      []uint64
	writes     []uint64
	rejectRead bool
	rejectWR   bool
}

func (f *fakeBackend) EnqueueRead(line uint64, thread int) bool {
	if f.rejectRead {
		return false
	}
	f.reads = append(f.reads, line)
	return true
}

func (f *fakeBackend) EnqueueWrite(line uint64, thread int) bool {
	if f.rejectWR {
		return false
	}
	f.writes = append(f.writes, line)
	return true
}

type fixedQuota map[int]int

func (q fixedQuota) MSHRQuota(t int) int { return q[t] }

func smallConfig() Config {
	return Config{SizeBytes: 4096, Ways: 2, LineBytes: 64, MSHRs: 4, HitLatency: 10}
}

func TestDefaultConfigGeometry(t *testing.T) {
	c := DefaultConfig()
	if got, want := c.Sets(), (8<<20)/(8*64); got != want {
		t.Errorf("Sets = %d, want %d", got, want)
	}
}

func TestMissFillHit(t *testing.T) {
	be := &fakeBackend{}
	l := New(smallConfig(), 2, be)

	fired := false
	out := l.Read(0x100, 0, func() { fired = true })
	if out != ReadMiss {
		t.Fatalf("first read outcome = %v, want ReadMiss", out)
	}
	if len(be.reads) != 1 || be.reads[0] != 0x100 {
		t.Fatalf("backend reads = %v, want [0x100]", be.reads)
	}
	if l.InFlight() != 1 {
		t.Errorf("InFlight = %d, want 1", l.InFlight())
	}
	l.Fill(0x100)
	if !fired {
		t.Error("fill did not fire the waiter callback")
	}
	if l.InFlight() != 0 {
		t.Errorf("InFlight after fill = %d, want 0", l.InFlight())
	}
	if out := l.Read(0x100, 0, nil); out != ReadHit {
		t.Errorf("read after fill = %v, want ReadHit", out)
	}
}

func TestMSHRHitMerges(t *testing.T) {
	be := &fakeBackend{}
	l := New(smallConfig(), 2, be)

	var n int
	l.Read(0x40, 0, func() { n++ })
	if out := l.Read(0x40, 1, func() { n++ }); out != ReadMSHRHit {
		t.Fatalf("second read = %v, want ReadMSHRHit", out)
	}
	if len(be.reads) != 1 {
		t.Fatalf("backend saw %d reads, want 1 (merged)", len(be.reads))
	}
	l.Fill(0x40)
	if n != 2 {
		t.Errorf("waiters fired = %d, want 2", n)
	}
	// The MSHR slot is charged to the allocating thread only.
	if got := l.Stats().MSHRHits[1]; got != 1 {
		t.Errorf("MSHRHits[1] = %d, want 1", got)
	}
}

func TestThreadQuotaBlocksAllocation(t *testing.T) {
	be := &fakeBackend{}
	l := New(smallConfig(), 2, be)
	l.SetQuotaProvider(fixedQuota{0: 1, 1: 4})

	if out := l.Read(0x40, 0, nil); out != ReadMiss {
		t.Fatalf("first miss = %v", out)
	}
	if out := l.Read(0x80, 0, nil); out != ReadBlocked {
		t.Errorf("over-quota read = %v, want ReadBlocked", out)
	}
	if got := l.Stats().QuotaBlocks[0]; got != 1 {
		t.Errorf("QuotaBlocks[0] = %d, want 1", got)
	}
	// Thread 1 is unaffected (its own quota applies).
	if out := l.Read(0x80, 1, nil); out != ReadMiss {
		t.Errorf("thread 1 read = %v, want ReadMiss", out)
	}
	// Thread 0 can still hit lines in flight (MSHR hit allowed over quota).
	if out := l.Read(0x80, 0, nil); out != ReadMSHRHit {
		t.Errorf("thread 0 MSHR hit = %v, want ReadMSHRHit (quota must not block merges)", out)
	}
}

func TestZeroQuotaStillAllowsHits(t *testing.T) {
	be := &fakeBackend{}
	l := New(smallConfig(), 1, be)
	l.Read(0x40, 0, nil)
	l.Fill(0x40)
	l.SetQuotaProvider(fixedQuota{0: 0})
	if out := l.Read(0x40, 0, nil); out != ReadHit {
		t.Errorf("cache hit with zero quota = %v, want ReadHit (paper: suspects may access cached data)", out)
	}
	if out := l.Read(0x80, 0, nil); out != ReadBlocked {
		t.Errorf("miss with zero quota = %v, want ReadBlocked", out)
	}
}

func TestTotalMSHRLimit(t *testing.T) {
	be := &fakeBackend{}
	l := New(smallConfig(), 1, be) // 4 MSHRs
	for i := 0; i < 4; i++ {
		if out := l.Read(uint64(0x1000+i*64), 0, nil); out != ReadMiss {
			t.Fatalf("miss %d = %v", i, out)
		}
	}
	if out := l.Read(0x9000, 0, nil); out != ReadBlocked {
		t.Errorf("5th outstanding miss = %v, want ReadBlocked", out)
	}
	if got := l.Stats().MSHRBlocks[0]; got != 1 {
		t.Errorf("MSHRBlocks = %d, want 1", got)
	}
}

func TestBackendQueueFullBlocks(t *testing.T) {
	be := &fakeBackend{rejectRead: true}
	l := New(smallConfig(), 1, be)
	if out := l.Read(0x40, 0, nil); out != ReadBlocked {
		t.Errorf("read with full MC queue = %v, want ReadBlocked", out)
	}
	if l.InFlight() != 0 {
		t.Error("rejected read must not hold an MSHR")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	be := &fakeBackend{}
	cfg := smallConfig() // 2 ways, 32 sets
	l := New(cfg, 1, be)
	sets := uint64(cfg.Sets())

	// Fill two ways of set 0 and dirty one of them.
	a := uint64(0)
	b := sets
	c := 2 * sets
	l.Read(a, 0, nil)
	l.Fill(a)
	if !l.Write(a, 0) {
		t.Fatal("write hit rejected")
	}
	l.Read(b, 0, nil)
	l.Fill(b)
	// Fill a third line in the same set: evicts LRU = a (dirty).
	l.Read(c, 0, nil)
	l.Fill(c)
	if len(be.writes) != 1 || be.writes[0] != a {
		t.Errorf("writebacks = %v, want [%#x]", be.writes, a)
	}
	if l.Stats().Writebacks != 1 {
		t.Errorf("Writebacks stat = %d, want 1", l.Stats().Writebacks)
	}
}

func TestWritebackRetryAfterReject(t *testing.T) {
	be := &fakeBackend{rejectWR: true}
	cfg := smallConfig()
	l := New(cfg, 1, be)
	sets := uint64(cfg.Sets())
	for i := uint64(0); i < 3; i++ {
		addr := i * sets
		l.Read(addr, 0, nil)
		l.Fill(addr)
		l.Write(addr, 0)
	}
	// The eviction happened while the queue was full.
	if len(be.writes) != 0 {
		t.Fatal("write must have been rejected")
	}
	be.rejectWR = false
	l.Tick()
	if len(be.writes) != 1 {
		t.Errorf("Tick did not retry the pending writeback: %v", be.writes)
	}
}

func TestWriteMissAllocatesAndFillsDirty(t *testing.T) {
	be := &fakeBackend{}
	cfg := smallConfig()
	l := New(cfg, 1, be)
	if !l.Write(0x40, 0) {
		t.Fatal("write miss rejected")
	}
	if len(be.reads) != 1 {
		t.Fatalf("write-allocate must fetch the line; reads = %v", be.reads)
	}
	l.Fill(0x40)
	// Evict it; it must write back because the fill was dirty.
	sets := uint64(cfg.Sets())
	for i := uint64(1); i <= 2; i++ {
		addr := 0x40 + i*sets
		l.Read(addr, 0, nil)
		l.Fill(addr)
	}
	if len(be.writes) != 1 {
		t.Errorf("dirty-filled line not written back on eviction; writes = %v", be.writes)
	}
}

func TestLRUReplacement(t *testing.T) {
	be := &fakeBackend{}
	cfg := smallConfig()
	l := New(cfg, 1, be)
	sets := uint64(cfg.Sets())
	a, b, c := uint64(0), sets, 2*sets
	l.Read(a, 0, nil)
	l.Fill(a)
	l.Read(b, 0, nil)
	l.Fill(b)
	// Touch a so that b becomes LRU.
	if out := l.Read(a, 0, nil); out != ReadHit {
		t.Fatal("expected hit on a")
	}
	l.Read(c, 0, nil)
	l.Fill(c)
	if out := l.Read(a, 0, nil); out != ReadHit {
		t.Error("a was evicted despite being MRU")
	}
	if out := l.Read(b, 0, nil); out != ReadMiss {
		t.Error("b should have been the LRU victim")
	}
}

func TestFillWithoutMSHRCounted(t *testing.T) {
	be := &fakeBackend{}
	l := New(smallConfig(), 1, be)
	l.Fill(0xdead)
	if l.Stats().FillsDropped != 1 {
		t.Error("unexpected fill must be counted in FillsDropped")
	}
}

// Property: MSHR occupancy equals allocations minus fills at all times and
// never exceeds the configured total.
func TestMSHRAccountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		be := &fakeBackend{}
		l := New(smallConfig(), 2, be)
		outstanding := map[uint64]bool{}
		for _, op := range ops {
			lineAddr := uint64(op%16) * 64
			if op%3 == 0 && len(outstanding) > 0 {
				// Fill an arbitrary outstanding line.
				for k := range outstanding {
					l.Fill(k)
					delete(outstanding, k)
					break
				}
				continue
			}
			thread := int(op) % 2
			if out := l.Read(lineAddr, thread, nil); out == ReadMiss {
				outstanding[lineAddr] = true
			}
			if l.InFlight() != len(outstanding) {
				return false
			}
			if l.InFlight() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPendingWritebacksDrainInOrderWithoutGrowing: writebacks the backend
// refused retry oldest first, a partial drain resumes where it stopped,
// and a queue that fills and drains over and over reuses its storage.
func TestPendingWritebacksDrainInOrderWithoutGrowing(t *testing.T) {
	be := &fakeBackend{rejectWR: true}
	l := New(smallConfig(), 1, be)
	for i := uint64(1); i <= 3; i++ {
		l.writeback(i)
	}
	be.rejectWR = false
	if !l.Tick() || len(be.writes) != 3 || be.writes[0] != 1 || be.writes[2] != 3 {
		t.Fatalf("drain order = %v, want [1 2 3]", be.writes)
	}
	if l.Tick() {
		t.Error("Tick reported progress with nothing pending")
	}
	round := func() {
		be.rejectWR = true
		l.writeback(10)
		l.writeback(11)
		be.rejectWR = false
		be.writes = be.writes[:0]
		l.Tick()
	}
	round()
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("a fill-and-drain round allocates %.2f objects, want 0", avg)
	}
}

// collidingLines returns n lines whose MSHR probe sequence starts at home.
func collidingLines(l *LLC, home, n int) []uint64 {
	var lines []uint64
	for a := uint64(1); len(lines) < n; a++ {
		if l.mshrHome(a) == home {
			lines = append(lines, a)
		}
	}
	return lines
}

// TestMSHRFileMatchesMapModel drives random reads, writes and fills over
// lines chosen to collide — three home slots, two of them at the table's
// end so probe runs wrap — and holds the open-addressed file against a Go
// map after every operation: same outcomes, same occupancy per thread,
// every in-flight line still reachable through its probe sequence after
// backward-shift deletions, every other line absent.
func TestMSHRFileMatchesMapModel(t *testing.T) {
	type reg struct{ thread, waiters int }
	cfg := Config{SizeBytes: 2048, Ways: 2, LineBytes: 64, MSHRs: 8, HitLatency: 10}
	for seed := int64(1); seed <= 5; seed++ {
		be := &fakeBackend{}
		l := New(cfg, 3, be)
		size := len(l.mshrs)
		if size != 32 {
			t.Fatalf("table size = %d, want 32 (4 x MSHRs)", size)
		}
		var pool []uint64
		for _, home := range []int{size - 2, size - 1, 5} {
			pool = append(pool, collidingLines(l, home, 12)...)
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[uint64]*reg{}
		dropped, fired, wrapped := int64(0), 0, false

		for op := 0; op < 4000; op++ {
			line := pool[rng.Intn(len(pool))]
			thread := rng.Intn(3)
			cached := l.lookup(line) >= 0
			r, inFlight := model[line]
			switch p := rng.Intn(10); {
			case p < 5:
				be.rejectRead = rng.Intn(8) == 0
				want := ReadMiss
				switch {
				case cached:
					want = ReadHit
				case inFlight:
					want = ReadMSHRHit
					r.waiters++
				case len(model) >= cfg.MSHRs || be.rejectRead:
					want = ReadBlocked
				default:
					model[line] = &reg{thread: thread, waiters: 1}
				}
				if got := l.Read(line, thread, func() { fired++ }); got != want {
					t.Fatalf("seed %d op %d: Read(%#x) = %v, want %v", seed, op, line, got, want)
				}
			case p < 7:
				be.rejectRead = false
				want := cached || inFlight || len(model) < cfg.MSHRs
				if want && !cached && !inFlight {
					model[line] = &reg{thread: thread}
				}
				if got := l.Write(line, thread); got != want {
					t.Fatalf("seed %d op %d: Write(%#x) = %v, want %v", seed, op, line, got, want)
				}
			default:
				fired = 0
				l.Fill(line)
				if inFlight {
					if fired != r.waiters {
						t.Fatalf("seed %d op %d: Fill(%#x) woke %d waiters, want %d", seed, op, line, fired, r.waiters)
					}
					delete(model, line)
				} else {
					dropped++
				}
			}

			if l.InFlight() != len(model) || l.Stats().FillsDropped != dropped {
				t.Fatalf("seed %d op %d: InFlight %d FillsDropped %d, model %d / %d",
					seed, op, l.InFlight(), l.Stats().FillsDropped, len(model), dropped)
			}
			perThread := make([]int, 3)
			for _, r := range model {
				perThread[r.thread]++
			}
			for th, n := range perThread {
				if l.InFlightByThread(th) != n {
					t.Fatalf("seed %d op %d: InFlightByThread(%d) = %d, model %d", seed, op, th, l.InFlightByThread(th), n)
				}
			}
			for _, line := range pool {
				slot, m := l.findMSHR(line)
				if _, ok := model[line]; ok != (m != nil) {
					t.Fatalf("seed %d op %d: line %#x in flight = %v, file says %v", seed, op, line, ok, m != nil)
				}
				if m != nil && slot < l.mshrHome(line) {
					wrapped = true
				}
			}
			occupied := 0
			for _, m := range l.mshrs {
				if m != nil {
					occupied++
				}
			}
			if occupied != len(model) {
				t.Fatalf("seed %d op %d: %d slots occupied, %d lines in flight", seed, op, occupied, len(model))
			}
		}
		if !wrapped || dropped == 0 {
			t.Errorf("seed %d: vacuous run (wrapped %v, dropped %d)", seed, wrapped, dropped)
		}
	}
}

// TestWaiterReenteringReadGetsFreshRegister: a register goes back to the
// free list only after its waiters ran, so a waiter that misses on another
// line from inside Fill cannot be handed the register being released — and
// finds the slot the fill just vacated usable.
func TestWaiterReenteringReadGetsFreshRegister(t *testing.T) {
	be := &fakeBackend{}
	l := New(smallConfig(), 1, be)
	lines := collidingLines(l, len(l.mshrs)-1, 2)
	a, b := lines[0], lines[1]
	woken := false
	l.Read(a, 0, func() {
		if out := l.Read(b, 0, func() { woken = true }); out != ReadMiss {
			t.Errorf("re-entrant read = %v, want ReadMiss", out)
		}
	})
	_, regA := l.findMSHR(a)
	l.Fill(a)
	slot, regB := l.findMSHR(b)
	if regB == nil || regB == regA {
		t.Fatalf("re-entrant miss got register %p, the one being released is %p", regB, regA)
	}
	if slot != len(l.mshrs)-1 || len(regB.waiters) != 1 || regB.waiters[0] == nil {
		t.Fatalf("re-entrant miss filed at slot %d with waiters %v", slot, regB.waiters)
	}
	l.Fill(b)
	if !woken || l.InFlight() != 0 {
		t.Errorf("woken = %v, InFlight = %d after both fills", woken, l.InFlight())
	}
}

// TestMissFillRoundTripDoesNotAllocate pins the map-free hot path: once
// the registers and their waiter slices exist, a miss, a merge, a write
// merge and the fill allocate nothing — on lines that all probe from one
// home slot, in a cache too small to keep any of them until its next turn.
func TestMissFillRoundTripDoesNotAllocate(t *testing.T) {
	be := &fakeBackend{}
	l := New(Config{SizeBytes: 256, Ways: 2, LineBytes: 64, MSHRs: 4, HitLatency: 10}, 2, be)
	lines := collidingLines(l, 3, 12)
	done := func() {}
	group := 0
	round := func() {
		be.reads, be.writes = be.reads[:0], be.writes[:0]
		batch := lines[group*3 : group*3+3]
		group = (group + 1) % 4
		for _, ln := range batch {
			l.Read(ln, 0, done)
			l.Read(ln, 1, done)
			l.Write(ln, 1)
		}
		for _, ln := range batch {
			l.Fill(ln)
		}
	}
	for i := 0; i < 8; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("a warm miss → fill round trip allocates %.2f objects, want 0", avg)
	}
	if s := l.Stats(); l.InFlight() != 0 || s.Hits[0] != 0 || s.Misses[0] == 0 || s.MSHRHits[1] == 0 || s.Writebacks == 0 {
		t.Fatalf("vacuous run: %+v", *s)
	}
}

// TestRefusalLifted pins the refusal state the skip-ahead driver's
// per-core sleep reads (sim.System.runDetailed): a quota refusal lifts
// only at a release of an MSHR the thread allocated, a write miss's
// included; a full MSHR file at any release; a full read queue only with
// memory progress; and an accepted access ends the refusal.
func TestRefusalLifted(t *testing.T) {
	lifted := func(t *testing.T, l *LLC, thread int, memProgress, want bool) {
		t.Helper()
		if got := l.RefusalLifted(thread, memProgress); got != want {
			t.Fatalf("RefusalLifted(%d, memProgress %v) = %v, want %v", thread, memProgress, got, want)
		}
	}
	t.Run("quota", func(t *testing.T) {
		l := New(smallConfig(), 2, &fakeBackend{})
		l.SetQuotaProvider(fixedQuota{0: 1, 1: 4})
		if !l.Write(0x100, 0) { // thread 0's one register: a write miss
			t.Fatal("write miss refused")
		}
		l.Read(0x200, 1, nil)
		l.Read(0x201, 1, nil)
		if l.Read(0x300, 0, nil) != ReadBlocked {
			t.Fatal("over-quota read accepted")
		}
		lifted(t, l, 0, true, false)
		l.Fill(0x200) // another thread's release
		lifted(t, l, 0, true, false)
		l.Fill(0x100) // the thread's own write-miss register
		lifted(t, l, 0, false, true)
		if l.Read(0x300, 0, nil) != ReadMiss {
			t.Fatal("retry after the own release refused")
		}
		lifted(t, l, 0, true, false)
	})
	t.Run("mshr-file", func(t *testing.T) {
		l := New(smallConfig(), 2, &fakeBackend{})
		for line := uint64(0x100); line < 0x104; line++ {
			l.Read(line, 0, nil)
		}
		if l.Read(0x200, 1, nil) != ReadBlocked {
			t.Fatal("read past a full MSHR file accepted")
		}
		lifted(t, l, 1, true, false)
		l.Fill(0x102) // any thread's release
		lifted(t, l, 1, false, true)
	})
	t.Run("queue", func(t *testing.T) {
		be := &fakeBackend{rejectRead: true}
		l := New(smallConfig(), 2, be)
		l.Read(0x100, 0, nil)
		l.Write(0x101, 1)
		lifted(t, l, 0, false, false)
		lifted(t, l, 0, true, true)
		lifted(t, l, 1, false, false)
		be.rejectRead = false
		l.Read(0x200, 1, nil)
		l.Fill(0x200) // a release without memory progress leaves it standing
		lifted(t, l, 0, false, false)
	})
	t.Run("accepted", func(t *testing.T) {
		be := &fakeBackend{}
		l := New(smallConfig(), 2, be)
		lifted(t, l, 0, true, false) // no refusal yet
		l.Read(0x100, 0, nil)
		l.Fill(0x100)
		be.rejectRead = true
		if l.Read(0x200, 0, nil) != ReadBlocked {
			t.Fatal("read past a full queue accepted")
		}
		lifted(t, l, 0, true, true)
		if l.Read(0x100, 0, nil) != ReadHit {
			t.Fatal("hit refused")
		}
		lifted(t, l, 0, true, false)
	})
}
