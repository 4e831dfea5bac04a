package cpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// countingTrace counts the records fetched from the trace it wraps.
type countingTrace struct {
	Trace
	n int
}

func (t *countingTrace) Next() (int64, uint64, bool) {
	t.n++
	return t.Trace.Next()
}

// schedMem is a Memory whose answers come from a fuzzed schedule, one
// byte per decision: a refusal that the harness lifts a few cycles later,
// a hit with a short latency, or a miss whose callback fires later. While
// a refusal stands every call is refused without consuming the schedule,
// so the answer a core sees only changes when the harness lifts it
// (epoch counts the lifts). fired counts the callbacks delivered.
type schedMem struct {
	sched   []byte
	next    int
	log     int // calls made, refused ones included
	pending []dueCallback
	liftAt  int64 // cycle the standing refusal lifts; -1 when none stands
	epoch   int
	fired   int64
}

func (m *schedMem) decide() byte {
	if len(m.sched) == 0 {
		return 0x80
	}
	b := m.sched[m.next%len(m.sched)]
	m.next++
	return b
}

// answer decides one call: ok false for a refusal; readyAt -1 for a miss,
// whose callback is filed at due.
func (m *schedMem) answer(now int64) (ok bool, readyAt, due int64) {
	m.log++
	if m.liftAt >= 0 {
		return false, 0, 0
	}
	switch b := m.decide(); b >> 6 {
	case 0:
		m.liftAt = now + 1 + int64(b&63)
		return false, 0, 0
	case 1:
		return true, now + int64(b&31), 0
	default:
		return true, -1, now + 1 + int64(b&127)
	}
}

func (m *schedMem) Read(line uint64, thread int, now int64, done func()) ReadResult {
	ok, readyAt, due := m.answer(now)
	if !ok {
		return ReadResult{}
	}
	if readyAt < 0 {
		m.pending = append(m.pending, dueCallback{due, done})
	}
	return ReadResult{OK: true, ReadyAt: readyAt}
}

func (m *schedMem) Write(line uint64, thread int, now int64) bool {
	ok, _, _ := m.answer(now)
	return ok
}

// advance lifts a refusal and fires the callbacks due by now, as the
// memory side does before the cores tick.
func (m *schedMem) advance(now int64) {
	if m.liftAt >= 0 && now >= m.liftAt {
		m.liftAt = -1
		m.epoch++
	}
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.at <= now {
			p.fn()
			m.fired++
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
}

// FuzzSleepingCoreIsNoOp pins the per-core sleep of the skip-ahead driver
// (sim.System.runDetailed): after a Tick that made no progress, every Tick
// before NextWake returns false, calls the trace not at all and Memory at
// most for a refused retry, and changes no field of the core but its stall
// counters — as long as Wakes has not moved and the memory's answer is
// unchanged. Callbacks of loads behind the head fire without waking the
// core (Wakes counts every callback only under an LSU quota).
// The core ticks on every cycle; the harness only tracks when it would
// sleep. The seeds must each see sleeping ticks.
func FuzzSleepingCoreIsNoOp(f *testing.F) {
	seeds := []struct {
		window, width, quota uint8
		traceSeed            int64
		sched                []byte
	}{
		{8, 4, 0, 1, []byte{0x80, 0x40, 0x05, 0xc0, 0x90, 0x41, 0x20, 0xff}},
		{3, 5, 0, 2, []byte{0x05, 0xf0, 0xe0, 0x3f, 0x5f}},
		{32, 7, 2, 3, []byte{0xff, 0xfe, 0x10, 0x7f, 0x81, 0x00}},
		{16, 1, 1, 4, []byte{0x40, 0x41, 0x9a, 0x02}},
		{128, 7, 0, 5, []byte{0xc8, 0xc8, 0xc8, 0x08, 0x60}},
	}
	for _, s := range seeds {
		if asleep := sleepingNoOp(f, s.window, s.width, s.quota, s.traceSeed, s.sched); asleep == 0 {
			f.Fatalf("seed %+v: no sleeping ticks", s)
		}
		f.Add(s.window, s.width, s.quota, s.traceSeed, s.sched)
	}
	f.Fuzz(func(t *testing.T, window, width, quota uint8, traceSeed int64, sched []byte) {
		sleepingNoOp(t, window, width, quota, traceSeed, sched)
	})
}

// sleepingNoOp runs one core for a few thousand cycles and returns the
// number of ticks it made while the driver would have had it asleep.
func sleepingNoOp(t testing.TB, window, width, quota uint8, traceSeed int64, sched []byte) int {
	cfg := Config{WindowSize: int(window%128) + 1, IssueWidth: int(width%8) + 1}
	mem := &schedMem{sched: sched, liftAt: -1}
	tr := &countingTrace{Trace: &randTrace{rng: rand.New(rand.NewSource(traceSeed))}}
	c := New(0, cfg, tr, mem, 1<<40)
	if quota%4 > 0 {
		c.SetLoadQuota(fixedQuota(quota % 4))
	}
	// state captures every field of the core but its fixed wiring, its
	// stall counters and the window's entries; loads captures the entries.
	type coreState struct {
		head, nloads, tail, count int
		bubbles                   int64
		pending                   memOp
		hasPending                bool
		outstanding               int
		wakes                     int64
		stats                     Stats
	}
	state := func() coreState {
		s := coreState{c.head, c.nloads, c.tail, c.count, c.bubbles, c.pending,
			c.hasPending, c.outstanding, c.wakes, c.stats}
		s.stats.WindowStalls, s.stats.BlockedStalls, s.stats.QuotaStalls = 0, 0, 0
		return s
	}
	type loadState struct {
		before  int
		ready   bool
		readyAt int64
	}
	loads := func(dst []loadState) []loadState {
		dst = dst[:0]
		for _, l := range c.loads {
			dst = append(dst, loadState{l.before, l.ready, l.readyAt})
		}
		return dst
	}
	var before, after []loadState

	asleep, ticks := false, 0
	var wake, wakes int64
	var epoch int
	for now := int64(0); now < 4000; now++ {
		mem.advance(now)
		if w := c.Wakes(); w > mem.fired || quota%4 > 0 && w != mem.fired {
			t.Fatalf("cycle %d: Wakes %d, %d callbacks fired (LSU quota %d)", now, w, mem.fired, quota%4)
		}
		if asleep && (now >= wake || c.Wakes() != wakes || mem.epoch != epoch) {
			asleep = false
		}
		if !asleep {
			if !c.Tick(now) {
				asleep, wake, wakes, epoch = true, c.NextWake(now), c.Wakes(), mem.epoch
			}
			continue
		}
		ticks++
		want, calls, fetched := state(), mem.log, tr.n
		before = loads(before)
		refusing := mem.liftAt >= 0
		if c.Tick(now) {
			t.Fatalf("cycle %d: a sleeping core's Tick reported progress", now)
		}
		if tr.n != fetched {
			t.Fatalf("cycle %d: a sleeping core's Tick fetched %d records", now, tr.n-fetched)
		}
		if mem.log != calls && (!refusing || mem.log != calls+1) {
			t.Fatalf("cycle %d: a sleeping core's Tick made %d Memory calls (a refusal standing: %v)", now, mem.log-calls, refusing)
		}
		if got := state(); got != want {
			t.Fatalf("cycle %d: a sleeping core's Tick changed the core\n got: %+v\nwant: %+v", now, got, want)
		}
		after = loads(after)
		for i := range after {
			if after[i] != before[i] {
				t.Fatalf("cycle %d: a sleeping core's Tick changed window entry %d: %+v, was %+v", now, i, after[i], before[i])
			}
		}
	}
	return ticks
}

// windowBlocked reports whether the core's window is full behind its head
// load with nothing ready before it, the load's data has not arrived, and
// a fetched record waits to issue.
func windowBlocked(c *Core, now int64) bool {
	l := &c.loads[c.head]
	return c.hasPending && c.count == len(c.loads) && c.nloads > 0 &&
		l.before == 0 && !l.done(now)
}

// TestWindowBlockedTickIsNoOp pins why the skip-ahead driver needs no
// wake rule of its own for a window-blocked core, whose tick stops at the
// full window before it reaches Memory. Whenever windowBlocked holds,
// Tick reports no progress, calls neither Memory nor the trace, and
// changes no field of the core but Stats.WindowStalls; and the condition
// only ends by the head load completing — at its known ready time
// (NextWake) or by its callback (Wakes) — so the first cycle it is
// false after being true is a cycle on which Tick retires. Random traces
// run against a Memory that mixes timed hits, late callbacks and refusals.
func TestWindowBlockedTickIsNoOp(t *testing.T) {
	for _, cfg := range []Config{{WindowSize: 8, IssueWidth: 4}, {WindowSize: 3, IssueWidth: 5}, {WindowSize: 32, IssueWidth: 7}} {
		for _, quota := range []int{0, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("w%d-i%d-q%d-s%d", cfg.WindowSize, cfg.IssueWidth, quota, seed)
				t.Run(name, func(t *testing.T) { windowBlockedNoOp(t, cfg, quota, seed) })
			}
		}
	}
}

func windowBlockedNoOp(t *testing.T, cfg Config, quota int, seed int64) {
	mem := &scriptMem{rng: rand.New(rand.NewSource(seed))}
	tr := &countingTrace{Trace: &randTrace{rng: rand.New(rand.NewSource(seed + 100))}}
	c := New(0, cfg, tr, mem, 1<<40)
	if quota > 0 {
		c.SetLoadQuota(fixedQuota(quota))
	}
	// state captures every field of the core but its fixed wiring, the
	// window's entries included, with WindowStalls shifted by stalls.
	type loadState struct {
		before  int
		ready   bool
		readyAt int64
	}
	type coreState struct {
		head, nloads, tail, count int
		bubbles                   int64
		pending                   memOp
		hasPending                bool
		outstanding               int
		stats                     Stats
		loads                     string
	}
	state := func(stalls int64) coreState {
		loads := make([]loadState, len(c.loads))
		for i, l := range c.loads {
			loads[i] = loadState{l.before, l.ready, l.readyAt}
		}
		s := coreState{c.head, c.nloads, c.tail, c.count, c.bubbles, c.pending,
			c.hasPending, c.outstanding, c.stats, fmt.Sprint(loads)}
		s.stats.WindowStalls += stalls
		return s
	}
	blocked, wasBlocked, unblocked := 0, false, 0
	for now := int64(0); now < 20_000; now++ {
		mem.fire(now)
		if !windowBlocked(c, now) {
			retired := c.Retired()
			progress := c.Tick(now)
			if wasBlocked {
				unblocked++
				if !progress || c.Retired() == retired {
					t.Fatalf("cycle %d: WindowBlocked ended but Tick retired nothing", now)
				}
			}
			wasBlocked = false
			continue
		}
		blocked++
		wasBlocked = true
		want, calls, fetched := state(1), len(mem.log), tr.n
		if c.Tick(now) {
			t.Fatalf("cycle %d: blocked Tick reported progress", now)
		}
		if len(mem.log) != calls || tr.n != fetched {
			t.Fatalf("cycle %d: blocked Tick made %d Memory calls, fetched %d records", now, len(mem.log)-calls, tr.n-fetched)
		}
		if got := state(0); got != want {
			t.Fatalf("cycle %d: blocked Tick changed the core\n got: %+v\nwant: %+v", now, got, want)
		}
	}
	if blocked == 0 || unblocked == 0 || c.Retired() == 0 {
		t.Fatalf("vacuous run: %d blocked cycles, %d unblocks, %d retired", blocked, unblocked, c.Retired())
	}
}
