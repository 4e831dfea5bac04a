package memctrl

// Differential tests: the production Controller and the frozen seed
// scheduler in refsched_test.go run side by side on identical devices,
// fed identical request/preventive/backoff streams, and must produce
// byte-identical command streams, callback sequences and stats. This is
// the guardrail that lets the ready-set scheduler replace the full-queue
// scan without forking any cached result (results.SchemaVersion stays
// put): FR-FCFS+Cap ordering, write-drain hysteresis, preventive and
// refresh priority, the gate's delays and every counter are all
// observable here.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"breakhammer/internal/dram"
)

// issueRec is one issued DRAM command, as observed by the device hook.
type issueRec struct {
	cmd  dram.Command
	bank int
	row  int
	col  int
	at   int64
}

// sideEffects records every externally observable callback.
type sideEffects struct {
	issues  []issueRec
	fills   []uint64
	lats    []string
	rejects int // enqueue rejections (full queue)
}

func recordDevice(t *testing.T, dev *dram.Device, se *sideEffects) {
	t.Helper()
	dev.SetIssueHook(func(cmd dram.Command, addr dram.Addr, now int64) {
		se.issues = append(se.issues, issueRec{cmd: cmd, bank: addr.Bank, row: addr.Row, col: addr.Col, at: now})
	})
}

// diffProfile shapes the synthetic request stream.
type diffProfile struct {
	name     string
	banks    int     // distinct banks touched
	rows     int     // distinct rows per bank (1 = pure locality, many = conflicts)
	readProb float64 // fraction of enqueues that are reads
	enqProb  float64 // per-cycle enqueue probability
	prevProb float64 // per-cycle preventive-request probability
	backoff  bool    // occasionally request PRAC back-off
	gate     bool    // install gateFn's ActGate
	cycles   int64
	burst    int // enqueue attempts per enqueue event (drives queues full)

	// Out of every gapEvery cycles the last gapLen see no arrivals at all
	// (0: no gaps): queues drain and the controller idles across refresh
	// deadlines. backoffIn overrides the 1-in-4096 back-off rate.
	gapEvery, gapLen int64
	backoffIn        int

	// fillWB > 0: the fill of a line divisible by fillWB enqueues a
	// writeback into the same controller from inside the fill callback,
	// as the LLC does with a dirty victim — an enqueue that lands while
	// the controller delivers read data, before its scheduler runs.
	fillWB int
}

func diffProfiles() []diffProfile {
	return []diffProfile{
		{name: "attack-conflicts", banks: 4, rows: 8, readProb: 0.8, enqProb: 0.9, prevProb: 0.02, cycles: 60_000, burst: 4},
		{name: "row-locality", banks: 6, rows: 1, readProb: 0.9, enqProb: 0.7, prevProb: 0.0, cycles: 40_000, burst: 2},
		{name: "write-heavy-hysteresis", banks: 4, rows: 4, readProb: 0.15, enqProb: 0.95, prevProb: 0.0, cycles: 60_000, burst: 6},
		{name: "preventive-storm", banks: 3, rows: 6, readProb: 0.8, enqProb: 0.5, prevProb: 0.3, cycles: 40_000, burst: 2},
		{name: "backoff", banks: 4, rows: 6, readProb: 0.8, enqProb: 0.6, prevProb: 0.05, backoff: true, cycles: 40_000, burst: 2},
		{name: "gated", banks: 4, rows: 6, readProb: 0.85, enqProb: 0.8, prevProb: 0.02, gate: true, cycles: 60_000, burst: 3},
		{name: "gated-backoff-mix", banks: 5, rows: 5, readProb: 0.6, enqProb: 0.85, prevProb: 0.08, gate: true, backoff: true, cycles: 60_000, burst: 4},
		// Shapes that put the controller to sleep and then disturb it:
		// long idle gaps, preventive and back-off requests landing on a
		// sleeping controller with little demand traffic, and write bursts
		// that flip the drain hysteresis between ticks.
		{name: "idle-gaps", banks: 6, rows: 4, readProb: 0.8, enqProb: 0.6, prevProb: 0.01, cycles: 80_000, burst: 3, gapEvery: 12_000, gapLen: 10_500},
		{name: "mid-sleep-requests", banks: 5, rows: 6, readProb: 0.7, enqProb: 0.02, prevProb: 0.002, backoff: true, backoffIn: 500, cycles: 80_000, burst: 2},
		{name: "drain-flips", banks: 4, rows: 3, readProb: 0.5, enqProb: 0.12, prevProb: 0.005, cycles: 80_000, burst: 12},
		{name: "gated-idle-gaps", banks: 4, rows: 6, readProb: 0.8, enqProb: 0.5, prevProb: 0.01, gate: true, cycles: 40_000, burst: 2, gapEvery: 8_000, gapLen: 6_000},
		// Writebacks enqueued from inside the fill callback, into a
		// controller that is mostly asleep or about to schedule.
		{name: "reentrant-writebacks", banks: 5, rows: 6, readProb: 0.9, enqProb: 0.1, prevProb: 0.005, cycles: 60_000, burst: 3, fillWB: 2},
		{name: "gated-reentrant-writebacks", banks: 4, rows: 5, readProb: 0.8, enqProb: 0.4, prevProb: 0.01, gate: true, backoff: true, cycles: 40_000, burst: 2, fillWB: 3},
	}
}

// gateFn builds a deterministic gate of BlockHammer's shape and the
// activate hook that trains it: after an activation of a (bank,row) pair
// with row%3 == 0, the pair's next activation waits a window that depends
// on the thread asking, cut short at the next 4096-cycle boundary, which
// forgets the activation. The answer is a pure function of the
// activations so far.
func gateFn() (ActGate, ActivateHook) {
	lastACT := map[int]int64{}
	gate := func(bank, row, thread int, now int64) int64 {
		last, ok := lastACT[bank<<20|row]
		if !ok || row%3 != 0 {
			return 0
		}
		return min(last+600+200*int64(thread&3), last|4095+1)
	}
	hook := func(bank, row, thread int, now int64) { lastACT[bank<<20|row] = now }
	return gate, hook
}

// diffHarness drives one controller implementation through a profile.
type diffHarness struct {
	enqueueRead  func(line uint64, thread int, addr dram.Addr) bool
	enqueueWrite func(line uint64, thread int, addr dram.Addr) bool
	requestVRR   func(bank int, rows []int)
	requestRFM   func(bank int)
	requestAux   func(bank int)
	requestMig   func(bank, src, dst int)
	backoff      func(bank, nRFM int)
	tick         func(now int64) bool
	stats        func() *Stats
	occupancy    func() (int, int)
	pending      func() int
}

func runDiffProfile(t *testing.T, p diffProfile, seed int64, h *diffHarness, se *sideEffects) []bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var progress []bool
	line := uint64(1)
	backoffIn := 4096
	if p.backoffIn > 0 {
		backoffIn = p.backoffIn
	}
	for cycle := int64(0); cycle < p.cycles; cycle++ {
		if p.gapEvery > 0 && cycle%p.gapEvery >= p.gapEvery-p.gapLen {
			progress = append(progress, h.tick(cycle))
			continue
		}
		if rng.Float64() < p.enqProb {
			for b := 0; b < p.burst; b++ {
				bank := rng.Intn(p.banks) * 2 // spread across bank groups
				row := rng.Intn(p.rows) * 37
				col := rng.Intn(8)
				addr := dram.Addr{Bank: bank, Row: row, Col: col}
				thread := rng.Intn(4)
				ok := false
				if rng.Float64() < p.readProb {
					ok = h.enqueueRead(line, thread, addr)
				} else {
					ok = h.enqueueWrite(line, -1, addr)
				}
				if !ok {
					se.rejects++
				}
				line++
			}
		}
		if p.prevProb > 0 && rng.Float64() < p.prevProb {
			bank := rng.Intn(p.banks) * 2
			switch rng.Intn(4) {
			case 0:
				h.requestVRR(bank, []int{rng.Intn(64), rng.Intn(64)})
			case 1:
				h.requestRFM(bank)
			case 2:
				h.requestAux(bank)
			case 3:
				h.requestMig(bank, rng.Intn(64), 1024+rng.Intn(64))
			}
		}
		if p.backoff && rng.Intn(backoffIn) == 0 {
			h.backoff(rng.Intn(p.banks)*2, 1+rng.Intn(3))
		}
		progress = append(progress, h.tick(cycle))
	}
	return progress
}

func prodHarness(c *Controller) *diffHarness {
	return &diffHarness{
		enqueueRead:  c.EnqueueReadAddr,
		enqueueWrite: c.EnqueueWriteAddr,
		requestVRR:   c.RequestVRR,
		requestRFM:   c.RequestRFM,
		requestAux:   c.RequestAux,
		requestMig:   c.RequestMigration,
		backoff:      c.RequestBackoff,
		tick:         c.Tick,
		stats:        c.Stats,
		occupancy:    c.QueueOccupancy,
		pending:      c.PendingPreventive,
	}
}

func refHarness(c *refController) *diffHarness {
	return &diffHarness{
		enqueueRead:  c.EnqueueReadAddr,
		enqueueWrite: c.EnqueueWriteAddr,
		requestVRR:   c.RequestVRR,
		requestRFM:   c.RequestRFM,
		requestAux:   c.RequestAux,
		requestMig:   c.RequestMigration,
		backoff:      c.RequestBackoff,
		tick:         c.Tick,
		stats:        c.Stats,
		occupancy:    c.QueueOccupancy,
		pending:      c.PendingPreventive,
	}
}

// attachObservers records fills and latencies, and performs p's
// reentrant writebacks through h.
func attachObservers(se *sideEffects, p diffProfile, h *diffHarness, setFill func(func(uint64)), setLat func(LatencySink)) {
	setFill(func(l uint64) {
		se.fills = append(se.fills, l)
		if p.fillWB > 0 && l%uint64(p.fillWB) == 0 {
			addr := dram.Addr{Bank: int(l*7%uint64(p.banks)) * 2, Row: int(l*13%uint64(p.rows)) * 37, Col: int(l % 8)}
			if !h.enqueueWrite(l|1<<40, -1, addr) {
				se.rejects++
			}
		}
	})
	setLat(func(thread int, cycles int64) {
		se.lats = append(se.lats, fmt.Sprintf("%d:%d", thread, cycles))
	})
}

// patchKind is a door of the candidate table that a command or a refresh
// deadline passes, as the coverage guard counts it.
type patchKind int

const (
	patchRD patchKind = iota
	patchWR
	patchACT
	patchDemandPRE
	patchRefreshPRE
	patchPreventivePRE
	patchREF
	patchPending // a refresh deadline turns a rank pending
	patchVRR
	patchRFM
	patchMIG
	patchAUX
	numPatchKinds
)

var patchKindNames = [numPatchKinds]string{
	"RD", "WR", "ACT", "demand PRE", "refresh PRE", "preventive PRE",
	"REF", "rank turning pending", "VRR", "RFM", "MIG", "AUX",
}

// patchCoverage counts, per door, the patches tableMatchesRebuild checked.
type patchCoverage [numPatchKinds]int

func (pc *patchCoverage) add(o patchCoverage) {
	for k, n := range o {
		pc[k] += n
	}
}

// tableWatch holds a production controller's candidate table to
// tableMatchesRebuild after every Tick and counts the patches that check
// saw: a door passed while the table was current, with no rebuild between
// it and the Tick's end.
type tableWatch struct {
	c       *Controller
	covered patchCoverage
	door    *readyQueue // tabQ when the Tick reached tryRefresh
	cmd     patchKind   // the Tick's command; -1 for none
	cmdRank int
	cmdTab  *readyQueue // tabQ when the command issued
	pending []bool      // refPending before the Tick
}

// watchTable installs a tableWatch on c through h: it wraps h's Tick and
// enqueues, and takes over c's device issue hook, recording the command
// stream into se (nil: record nothing, and allocate nothing).
func watchTable(t *testing.T, c *Controller, h *diffHarness, se *sideEffects) *tableWatch {
	w := &tableWatch{c: c, cmd: -1, pending: make([]bool, len(c.refPending))}
	c.dev.SetIssueHook(func(cmd dram.Command, addr dram.Addr, now int64) {
		if se != nil {
			se.issues = append(se.issues, issueRec{cmd: cmd, bank: addr.Bank, row: addr.Row, col: addr.Col, at: now})
		}
		w.cmd, w.cmdRank, w.cmdTab = w.kindOf(cmd, addr.Bank), c.dev.RankOf(addr.Bank), c.tabQ
	})
	for _, enq := range []*func(uint64, int, dram.Addr) bool{&h.enqueueRead, &h.enqueueWrite} {
		inner := *enq
		*enq = func(line uint64, thread int, addr dram.Addr) bool {
			ok := inner(line, thread, addr)
			w.door = c.tabQ // a writeback from a fill lands before tryRefresh
			return ok
		}
	}
	tick := h.tick
	h.tick = func(now int64) bool {
		copy(w.pending, c.refPending)
		w.door, w.cmd = c.tabQ, -1
		prog := tick(now)
		if err := tableMatchesRebuild(c); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		w.count()
		return prog
	}
	return w
}

// kindOf names the door a command about to issue to bank passes. A PRE to
// a pending rank is refresh's (tryRefresh would have issued any PRE
// there that tryPreventive finds legal), one to a bank with a queued
// preventive action is tryPreventive's (classify withholds demand row
// commands there), and any other is demand's.
func (w *tableWatch) kindOf(cmd dram.Command, bank int) patchKind {
	switch cmd {
	case dram.CmdRD:
		return patchRD
	case dram.CmdWR:
		return patchWR
	case dram.CmdACT:
		return patchACT
	case dram.CmdREF:
		return patchREF
	case dram.CmdVRR:
		return patchVRR
	case dram.CmdRFM:
		return patchRFM
	case dram.CmdMIG:
		return patchMIG
	case dram.CmdAUX:
		return patchAUX
	}
	switch {
	case w.c.refPending[w.c.dev.RankOf(bank)]:
		return patchRefreshPRE
	case w.c.prevQ[bank].len() > 0:
		return patchPreventivePRE
	}
	return patchDemandPRE
}

// count credits the Tick's doors whose patch the table check just saw:
// tabQ is the same queue at the door and at the Tick's end (no hook in
// these harnesses wakes the controller inside a Tick, so the table was not
// rebuilt in between).
func (w *tableWatch) count() {
	tab := w.c.tabQ
	if tab == nil {
		return
	}
	if w.cmd >= 0 && w.cmdTab == tab {
		w.covered[w.cmd]++
	}
	if w.door != tab {
		return
	}
	for r, was := range w.pending {
		if !was && (w.c.refPending[r] || w.cmd == patchREF && w.cmdRank == r) {
			w.covered[patchPending]++
		}
	}
}

// TestSchedulerMatchesReference is the byte-identical contract between
// the incremental ready-set scheduler and the seed full-scan scheduler.
// After every Tick the production controller's candidate table must also
// equal a rebuild; the guard at the end fails as vacuous unless, across
// the profiles, that check saw a patch after every kind of command and
// after a rank turning refresh-pending.
func TestSchedulerMatchesReference(t *testing.T) {
	var covered patchCoverage
	ran := 0
	for _, p := range diffProfiles() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			ran++
			for seed := int64(1); seed <= 3; seed++ {
				covered.add(checkMatchesReference(t, p, seed))
			}
		})
	}
	if ran < len(diffProfiles()) || t.Failed() {
		return // a filtered or failed run has no coverage to judge
	}
	for k, n := range covered {
		t.Logf("%s: %d checked patches", patchKindNames[k], n)
		if n == 0 {
			t.Errorf("no profile patched a current table after %s: the per-Tick table check is vacuous there", patchKindNames[k])
		}
	}
}

// checkMatchesReference runs the production controller and the frozen
// seed scheduler side by side through one profile and seed and fails
// unless everything observable agrees and the production controller's
// table equals a rebuild after every Tick. It returns the patches that
// table check saw.
func checkMatchesReference(t *testing.T, p diffProfile, seed int64) patchCoverage {
	t.Helper()
	devA, err := dram.NewDevice(dram.Default(), dram.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	devB, err := dram.NewDevice(dram.Default(), dram.DDR5())
	if err != nil {
		t.Fatal(err)
	}
	var seA, seB sideEffects
	recordDevice(t, devB, &seB)

	prod := New(DefaultConfig(), devA, 4)
	ref := newRefController(DefaultConfig(), devB, 4)
	hA, hB := prodHarness(prod), refHarness(ref)
	watch := watchTable(t, prod, hA, &seA)
	attachObservers(&seA, p, hA, prod.SetFillFunc, prod.SetLatencySink)
	attachObservers(&seB, p, hB, ref.SetFillFunc, ref.SetLatencySink)
	if p.gate {
		gate, train := gateFn()
		prod.SetActGate(gate)
		prod.AddActivateHook(train)
		gate, train = gateFn()
		ref.SetActGate(gate)
		ref.AddActivateHook(train)
	}
	var actsA, actsB []actRec
	prod.AddActivateHook(func(bank, row, thread int, now int64) {
		actsA = append(actsA, actRec{bank, row, thread, now})
	})
	ref.AddActivateHook(func(bank, row, thread int, now int64) {
		actsB = append(actsB, actRec{bank, row, thread, now})
	})

	progA := runDiffProfile(t, p, seed, hA, &seA)
	progB := runDiffProfile(t, p, seed, hB, &seB)

	if !reflect.DeepEqual(progA, progB) {
		t.Fatalf("seed %d: Tick progress sequences diverge", seed)
	}
	if len(seA.issues) != len(seB.issues) {
		t.Fatalf("seed %d: issued %d commands, reference issued %d", seed, len(seA.issues), len(seB.issues))
	}
	for i := range seA.issues {
		if seA.issues[i] != seB.issues[i] {
			t.Fatalf("seed %d: command %d diverges: got %+v, reference %+v",
				seed, i, seA.issues[i], seB.issues[i])
		}
	}
	if !reflect.DeepEqual(seA.fills, seB.fills) {
		t.Fatalf("seed %d: fill sequences diverge", seed)
	}
	if !reflect.DeepEqual(actsA, actsB) {
		t.Fatalf("seed %d: activate-hook sequences diverge", seed)
	}
	if !reflect.DeepEqual(seA.lats, seB.lats) {
		t.Fatalf("seed %d: latency sequences diverge", seed)
	}
	if seA.rejects != seB.rejects {
		t.Fatalf("seed %d: enqueue rejections diverge: %d vs %d", seed, seA.rejects, seB.rejects)
	}
	if !reflect.DeepEqual(*prod.Stats(), *ref.Stats()) {
		t.Fatalf("seed %d: stats diverge:\n got %+v\n ref %+v", seed, *prod.Stats(), *ref.Stats())
	}
	ra, wa := prod.QueueOccupancy()
	rb, wb := ref.QueueOccupancy()
	if ra != rb || wa != wb {
		t.Fatalf("seed %d: occupancy diverges: (%d,%d) vs (%d,%d)", seed, ra, wa, rb, wb)
	}
	if prod.PendingPreventive() != ref.PendingPreventive() {
		t.Fatalf("seed %d: pending preventive diverges", seed)
	}
	return watch.covered
}
