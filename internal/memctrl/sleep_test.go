package memctrl

import (
	"reflect"
	"testing"

	"breakhammer/internal/dram"
)

// sleepRun drives one production controller through a profile and returns
// what the outside can observe. With poll set the controller is denied its
// sleep (pollEveryTick); asleep counts the Ticks that skipped the scheduler.
type sleepRun struct {
	se       sideEffects
	progress []bool
	acts     []actRec // activate-hook calls
	stats    Stats
	rq, wq   int
	pending  int
	asleep   int
}

type actRec struct {
	bank, row, thread int
	at                int64
}

func runSleepProfile(t *testing.T, p diffProfile, seed int64, poll bool) *sleepRun {
	t.Helper()
	dev, err := dram.NewDevice(dram.Default(), dram.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	r := &sleepRun{}
	c := New(DefaultConfig(), dev, 4)
	h := prodHarness(c)
	watchTable(t, c, h, &r.se)
	attachObservers(&r.se, p, h, c.SetFillFunc, c.SetLatencySink)
	c.AddActivateHook(func(bank, row, thread int, now int64) {
		r.acts = append(r.acts, actRec{bank, row, thread, now})
	})
	if p.gate {
		c.SetActGate(gateFn(&r.se))
	}
	inner := h.tick
	h.tick = func(now int64) bool {
		if c.asleepAt(now) {
			r.asleep++
		}
		return inner(now)
	}
	if poll {
		h.tick = pollEveryTick(c, h.tick)
	}
	r.progress = runDiffProfile(t, p, seed, h, &r.se)
	r.stats = *c.Stats()
	r.rq, r.wq = c.QueueOccupancy()
	r.pending = c.PendingPreventive()
	return r
}

// TestSleepMatchesPolling is the identity the controller's sleep rests on:
// the same controller, denied its sleep before every Tick, returns the
// same verdict on every cycle and issues the same command stream, with the
// same callbacks, gate evaluations and counters. The profiles idle the
// controller, wake it with enqueues, preventive and back-off requests
// mid-sleep, and flip the write drain between ticks; the gated profiles
// must never sleep at all.
func TestSleepMatchesPolling(t *testing.T) {
	for _, p := range diffProfiles() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				a := checkSleepMatchesPolling(t, p, seed)
				if !p.gate && a.asleep < len(a.progress)/10 {
					t.Fatalf("seed %d: the sleep hardly engaged (%d of %d ticks): the test is vacuous",
						seed, a.asleep, len(a.progress))
				}
			}
		})
	}
}

// checkSleepMatchesPolling runs one profile and seed on a sleeping
// controller and on its forced-polling twin (which also rebuilds its
// candidate table on every Tick), fails unless everything observable
// agrees, and returns the sleeping run.
func checkSleepMatchesPolling(t *testing.T, p diffProfile, seed int64) *sleepRun {
	t.Helper()
	a := runSleepProfile(t, p, seed, false)
	b := runSleepProfile(t, p, seed, true)
	for cycle := range a.progress {
		if a.progress[cycle] != b.progress[cycle] {
			t.Fatalf("seed %d: Tick verdict diverges at cycle %d: sleeping %v, polling %v",
				seed, cycle, a.progress[cycle], b.progress[cycle])
		}
	}
	for i := range a.se.issues {
		if i >= len(b.se.issues) || a.se.issues[i] != b.se.issues[i] {
			t.Fatalf("seed %d: command %d diverges: sleeping %+v, polling has %d commands",
				seed, i, a.se.issues[i], len(b.se.issues))
		}
	}
	if len(a.se.issues) != len(b.se.issues) {
		t.Fatalf("seed %d: sleeping issued %d commands, polling %d", seed, len(a.se.issues), len(b.se.issues))
	}
	if !reflect.DeepEqual(a.se, b.se) {
		t.Fatalf("seed %d: fill, latency, gate or rejection sequences diverge", seed)
	}
	if !reflect.DeepEqual(a.acts, b.acts) {
		t.Fatalf("seed %d: activate-hook sequences diverge", seed)
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Fatalf("seed %d: stats diverge:\n sleeping %+v\n polling  %+v", seed, a.stats, b.stats)
	}
	if a.rq != b.rq || a.wq != b.wq || a.pending != b.pending {
		t.Fatalf("seed %d: final occupancy diverges", seed)
	}
	if b.asleep != 0 {
		t.Fatalf("seed %d: the polling controller slept through %d ticks", seed, b.asleep)
	}
	if p.gate && a.asleep != 0 {
		t.Fatalf("seed %d: a gated controller slept through %d ticks", seed, a.asleep)
	}
	return a
}

// TestSleepWakesOnEveryInput checks the invalidation list one entry at a
// time: a controller asleep on an empty system (next refresh deadline far
// off) must run its scheduler on the Tick after each kind of arrival.
func TestSleepWakesOnEveryInput(t *testing.T) {
	addr := dram.Addr{Bank: 2, Row: 5}
	inputs := map[string]func(c *Controller){
		"EnqueueReadAddr":  func(c *Controller) { c.EnqueueReadAddr(1, 0, addr) },
		"EnqueueWriteAddr": func(c *Controller) { c.EnqueueWriteAddr(1, -1, addr) },
		"RequestVRR":       func(c *Controller) { c.RequestVRR(2, []int{7}) },
		"RequestRFM":       func(c *Controller) { c.RequestRFM(2) },
		"RequestAux":       func(c *Controller) { c.RequestAux(2) },
		"RequestMigration": func(c *Controller) { c.RequestMigration(2, 7, 1024) },
		"RequestBackoff":   func(c *Controller) { c.RequestBackoff(2, 1) },
	}
	for name, arrive := range inputs {
		dev, err := dram.NewDevice(dram.Default(), dram.DDR5())
		if err != nil {
			t.Fatal(err)
		}
		c := New(DefaultConfig(), dev, 1)
		issued := 0
		dev.SetIssueHook(func(dram.Command, dram.Addr, int64) { issued++ })
		c.Tick(0)
		if !c.asleepAt(1) {
			t.Fatalf("%s: an empty controller is not asleep after its first Tick", name)
		}
		arrive(c)
		c.Tick(1)
		if issued != 1 {
			t.Errorf("%s: the Tick after the arrival issued %d commands, want 1", name, issued)
		}
	}

	// SkipTo moves refresh deadlines, possibly to before the sleep's end.
	dev, err := dram.NewDevice(dram.Default(), dram.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	c := New(DefaultConfig(), dev, 1)
	c.Tick(0)
	c.SkipTo(1 << 20)
	if c.asleepAt(1 << 20) {
		t.Error("SkipTo left the controller asleep")
	}
	// Installing a gate ends the sleep for good.
	c.Tick(1 << 20)
	c.SetActGate(func(bank, row, thread int, now int64) bool { return true })
	c.Tick(1<<20 + 1)
	if c.asleepAt(1<<20 + 2) {
		t.Error("a gated controller went to sleep")
	}
}
