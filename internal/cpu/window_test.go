package cpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// windowModel is what TestWindowMatchesReference drives on both sides:
// the run-length Core and the frozen slot-per-instruction refCore.
type windowModel interface {
	Tick(now int64) bool
	DrainTick(now int64) bool
	NextWake(now int64) int64
	FFNext() (int64, uint64, bool)
	CreditRetired(n, now int64)
	Retired() int64
	Finished() bool
	IPC(now int64) float64
	WindowOccupied() int
	Outstanding() int
	Stats() *Stats
	SetLoadQuota(LoadQuota)
}

// randTrace draws records from its own generator: bubble runs from 0 to
// 500 with most of the weight on short ones, a small line pool, 30 % stores.
type randTrace struct{ rng *rand.Rand }

func (t *randTrace) Next() (int64, uint64, bool) {
	var b int64
	switch p := t.rng.Intn(10); {
	case p < 4:
	case p < 7:
		b = 1 + t.rng.Int63n(10)
	case p < 9:
		b = 10 + t.rng.Int63n(90)
	default:
		b = 100 + t.rng.Int63n(401)
	}
	return b, uint64(t.rng.Intn(64)), t.rng.Intn(10) < 3
}

type memCall struct {
	now  int64
	line uint64
	kind byte // 'R' or 'W'
}

type dueCallback struct {
	at int64
	fn func()
}

// scriptMem is a Memory whose answers depend only on its own generator
// and the order of the calls, so two cores that behave alike see the same
// script: refusals (in episodes, like a full MSHR file), hits with a random
// latency (0 included) and misses whose callback the harness fires at a
// random later cycle. Every call is logged, refused ones too.
type scriptMem struct {
	rng     *rand.Rand
	log     []memCall
	pending []dueCallback
	refuse  int // remaining calls of a refusal episode
}

func (m *scriptMem) refused() bool {
	if m.refuse > 0 {
		m.refuse--
		return true
	}
	if m.rng.Intn(8) == 0 {
		m.refuse = m.rng.Intn(6)
		return true
	}
	return false
}

func (m *scriptMem) Read(line uint64, thread int, now int64, done func()) ReadResult {
	m.log = append(m.log, memCall{now, line, 'R'})
	if m.refused() {
		return ReadResult{}
	}
	if m.rng.Intn(2) == 0 {
		return ReadResult{OK: true, ReadyAt: now + m.rng.Int63n(40)}
	}
	m.pending = append(m.pending, dueCallback{now + 1 + m.rng.Int63n(200), done})
	return ReadResult{OK: true, ReadyAt: -1}
}

func (m *scriptMem) Write(line uint64, thread int, now int64) bool {
	m.log = append(m.log, memCall{now, line, 'W'})
	return !m.refused()
}

// fire runs the callbacks due by now, in the order the loads were accepted.
func (m *scriptMem) fire(now int64) {
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.at <= now {
			p.fn()
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
}

func (m *scriptMem) nextDue() int64 {
	next := int64(1) << 62
	for _, p := range m.pending {
		next = min(next, p.at)
	}
	return next
}

// TestWindowMatchesReference holds the run-length window against the
// slot-per-instruction one it replaced, cycle by cycle: Tick's verdict,
// NextWake, every counter and the exact sequence of Memory calls must
// agree on random traces, under refusals, hits, late callbacks, an LSU
// quota, skipped idle cycles, lone DrainTicks and whole detailed →
// fast-forward → detailed mode switches.
func TestWindowMatchesReference(t *testing.T) {
	geometries := []Config{
		{WindowSize: 128, IssueWidth: 7},
		{WindowSize: 8, IssueWidth: 4},
		{WindowSize: 3, IssueWidth: 5}, // window smaller than the issue width
		{WindowSize: 16, IssueWidth: 1},
	}
	for _, cfg := range geometries {
		for _, quota := range []int{0, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("w%d-i%d-q%d-s%d", cfg.WindowSize, cfg.IssueWidth, quota, seed)
				t.Run(name, func(t *testing.T) { matchReference(t, cfg, quota, seed) })
			}
		}
	}
}

func matchReference(t *testing.T, cfg Config, quota int, seed int64) {
	const target = 20_000
	type side struct {
		core windowModel
		mem  *scriptMem
	}
	build := func(ref bool) side {
		mem := &scriptMem{rng: rand.New(rand.NewSource(seed))}
		tr := &randTrace{rng: rand.New(rand.NewSource(seed + 100))}
		var c windowModel
		if ref {
			c = newRefCore(0, cfg, tr, mem, target)
		} else {
			c = New(0, cfg, tr, mem, target)
		}
		if quota > 0 {
			c.SetLoadQuota(fixedQuota(quota))
		}
		return side{c, mem}
	}
	got, want := build(false), build(true)

	now := int64(0)
	same := func(what string, g, w any) {
		t.Helper()
		if g != w {
			t.Fatalf("cycle %d: %s = %v, reference %v", now, what, g, w)
		}
	}
	compare := func() {
		t.Helper()
		same("NextWake", got.core.NextWake(now), want.core.NextWake(now))
		same("Retired", got.core.Retired(), want.core.Retired())
		same("Finished", got.core.Finished(), want.core.Finished())
		same("IPC", got.core.IPC(now), want.core.IPC(now))
		same("WindowOccupied", got.core.WindowOccupied(), want.core.WindowOccupied())
		same("Outstanding", got.core.Outstanding(), want.core.Outstanding())
		same("Stats", *got.core.Stats(), *want.core.Stats())
		same("Memory calls", len(got.mem.log), len(want.mem.log))
		for i := len(got.mem.log) - 1; i >= 0 && got.mem.log[i].now == now; i-- {
			same("Memory call", got.mem.log[i], want.mem.log[i])
		}
	}

	drive := rand.New(rand.NewSource(seed + 200)) // the harness's own choices
	switches := 0
	for ; now < 30_000; now++ {
		got.mem.fire(now)
		want.mem.fire(now)
		switch p := drive.Intn(1000); {
		case p < 3:
			// Mode switch: drain the window while the memory side lands
			// the loads in flight, step the stream functionally, jump.
			for got.core.WindowOccupied() > 0 || want.core.WindowOccupied() > 0 {
				same("DrainTick", got.core.DrainTick(now), want.core.DrainTick(now))
				compare()
				now++
				got.mem.fire(now)
				want.mem.fire(now)
			}
			for n := drive.Intn(4); n >= 0; n-- {
				gb, gl, gw := got.core.FFNext()
				wb, wl, ww := want.core.FFNext()
				same("FFNext", rec{gb, gl, gw}, rec{wb, wl, ww})
				now += drive.Int63n(50)
				got.core.CreditRetired(gb+1, now)
				want.core.CreditRetired(wb+1, now)
			}
			compare()
			switches++
		case p < 30:
			same("DrainTick", got.core.DrainTick(now), want.core.DrainTick(now))
			compare()
		default:
			progress := got.core.Tick(now)
			same("Tick", progress, want.core.Tick(now))
			compare()
			if !progress && drive.Intn(2) == 0 {
				// What the skip-ahead driver does with a stalled core:
				// sleep until its own wake or the next callback.
				wake := min(got.core.NextWake(now), got.mem.nextDue(), now+40)
				now = max(now, wake-1)
			}
		}
	}
	s := got.core.Stats()
	if !got.core.Finished() || s.Loads == 0 || s.Stores == 0 || s.WindowStalls == 0 ||
		s.BlockedStalls == 0 || (quota > 0) != (s.QuotaStalls > 0) || switches == 0 {
		t.Fatalf("vacuous run: %d mode switches, %+v", switches, *s)
	}
}
