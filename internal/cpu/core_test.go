package cpu

import "testing"

// scriptTrace replays a fixed list of records, looping forever.
type scriptTrace struct {
	recs []rec
	i    int
}

type rec struct {
	bubbles int64
	line    uint64
	write   bool
}

func (s *scriptTrace) Next() (int64, uint64, bool) {
	r := s.recs[s.i%len(s.recs)]
	s.i++
	return r.bubbles, r.line, r.write
}

// fakeMem answers loads with a fixed latency; it can also block.
type fakeMem struct {
	latency   int64
	block     bool
	blockWr   bool
	reads     int
	writes    int
	callbacks []func()
}

func (m *fakeMem) Read(line uint64, thread int, now int64, done func()) ReadResult {
	if m.block {
		return ReadResult{}
	}
	m.reads++
	if m.latency < 0 {
		m.callbacks = append(m.callbacks, done)
		return ReadResult{OK: true, ReadyAt: -1}
	}
	return ReadResult{OK: true, ReadyAt: now + m.latency}
}

func (m *fakeMem) Write(line uint64, thread int, now int64) bool {
	if m.blockWr {
		return false
	}
	m.writes++
	return true
}

func runCore(c *Core, cycles int64) {
	for i := int64(0); i < cycles; i++ {
		c.Tick(i)
	}
}

func TestBubblesRetireAtIssueWidth(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 1000000, line: 0}}}
	c := New(0, Config{WindowSize: 128, IssueWidth: 7}, tr, &fakeMem{latency: 10}, 1_000_000)
	runCore(c, 100)
	// With pure bubbles the core retires ~IssueWidth per cycle.
	got := c.Retired()
	if got < 7*90 || got > 7*100 {
		t.Errorf("retired %d in 100 cycles, want ~700", got)
	}
}

func TestLoadLatencyStallsWindow(t *testing.T) {
	// Memory ops back to back with huge latency: the window (8) fills and
	// the core stalls.
	tr := &scriptTrace{recs: []rec{{bubbles: 0, line: 1}}}
	mem := &fakeMem{latency: 10_000}
	c := New(0, Config{WindowSize: 8, IssueWidth: 4}, tr, mem, 1_000_000)
	runCore(c, 100)
	if c.Retired() != 0 {
		t.Errorf("retired %d, want 0 (all loads outstanding)", c.Retired())
	}
	if mem.reads != 8 {
		t.Errorf("issued %d loads, want 8 (window size)", mem.reads)
	}
	if c.Stats().WindowStalls == 0 {
		t.Error("window stalls not counted")
	}
}

func TestLoadCompletionUnblocksRetire(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 0, line: 1}}}
	mem := &fakeMem{latency: 5}
	c := New(0, Config{WindowSize: 4, IssueWidth: 2}, tr, mem, 1_000_000)
	runCore(c, 50)
	if c.Retired() == 0 {
		t.Error("loads with latency 5 never retired")
	}
}

func TestCallbackDrivenLoads(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 0, line: 1}}}
	mem := &fakeMem{latency: -1} // callback mode
	c := New(0, Config{WindowSize: 4, IssueWidth: 2}, tr, mem, 1_000_000)
	runCore(c, 10)
	if c.Retired() != 0 {
		t.Fatal("nothing should retire before callbacks fire")
	}
	for _, cb := range mem.callbacks {
		cb()
	}
	mem.callbacks = nil
	c.Tick(11)
	if c.Retired() == 0 {
		t.Error("retire did not resume after callbacks fired")
	}
}

func TestBlockedMemoryStallsIssue(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 0, line: 1}}}
	mem := &fakeMem{block: true}
	c := New(0, DefaultConfig(), tr, mem, 1_000_000)
	runCore(c, 20)
	if mem.reads != 0 {
		t.Error("blocked memory accepted reads")
	}
	if c.Stats().BlockedStalls == 0 {
		t.Error("blocked stalls not counted")
	}
}

func TestStoresAreFireAndForget(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 2, line: 1, write: true}}}
	mem := &fakeMem{latency: 1000}
	c := New(0, Config{WindowSize: 16, IssueWidth: 4}, tr, mem, 1_000_000)
	runCore(c, 100)
	if mem.writes == 0 {
		t.Fatal("no stores issued")
	}
	// Stores retire immediately: the core makes continuous progress.
	if c.Retired() < 100 {
		t.Errorf("retired %d, stores must not block retirement", c.Retired())
	}
}

func TestBlockedStoreRetries(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 0, line: 1, write: true}}}
	mem := &fakeMem{blockWr: true}
	c := New(0, DefaultConfig(), tr, mem, 1_000_000)
	runCore(c, 10)
	if c.Retired() != 0 {
		t.Error("blocked store must stall the core")
	}
	mem.blockWr = false
	runCore(c, 10)
	if mem.writes == 0 {
		t.Error("store not retried after unblock")
	}
}

func TestFinishTargetRecorded(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 99, line: 1}}}
	mem := &fakeMem{latency: 2}
	c := New(0, DefaultConfig(), tr, mem, 500)
	runCore(c, 1000)
	if !c.Finished() {
		t.Fatal("core never finished 500 instructions")
	}
	if c.Stats().FinishedAt <= 0 {
		t.Error("FinishedAt not recorded")
	}
	ipc := c.IPC(1000)
	if ipc <= 0 || ipc > 7 {
		t.Errorf("IPC = %g out of range (0, 7]", ipc)
	}
	// Core keeps running after finishing (contention methodology).
	before := c.Retired()
	runCore(c, 100)
	if c.Retired() <= before {
		t.Error("core stopped executing after finish")
	}
}

func TestIPCCapsAtTarget(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 1000, line: 1}}}
	mem := &fakeMem{latency: 1}
	c := New(0, DefaultConfig(), tr, mem, 100)
	runCore(c, 200)
	// IPC uses min(retired, target) over FinishedAt.
	fin := c.Stats().FinishedAt
	want := 100.0 / float64(fin)
	if got := c.IPC(200); got != want {
		t.Errorf("IPC = %g, want %g", got, want)
	}
}

func TestMixedTraceProgress(t *testing.T) {
	tr := &scriptTrace{recs: []rec{
		{bubbles: 10, line: 0x100},
		{bubbles: 0, line: 0x140},
		{bubbles: 5, line: 0x180, write: true},
	}}
	mem := &fakeMem{latency: 8}
	c := New(0, DefaultConfig(), tr, mem, 10_000)
	runCore(c, 5_000)
	if !c.Finished() {
		t.Errorf("mixed trace did not finish: retired=%d", c.Retired())
	}
	if mem.reads == 0 || mem.writes == 0 {
		t.Error("expected both loads and stores to reach memory")
	}
	if c.Stats().Loads == 0 || c.Stats().Stores == 0 {
		t.Error("load/store stats not counted")
	}
}

// fixedQuota is a LoadQuota returning one constant.
type fixedQuota int

func (q fixedQuota) MSHRQuota(int) int { return int(q) }

func TestLoadQuotaLimitsOutstanding(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 0, line: 1}}}
	mem := &fakeMem{latency: -1} // never completes until callbacks fire
	c := New(0, Config{WindowSize: 32, IssueWidth: 4}, tr, mem, 1_000_000)
	c.SetLoadQuota(fixedQuota(3))
	runCore(c, 50)
	if mem.reads != 3 {
		t.Errorf("issued %d loads, want 3 (quota)", mem.reads)
	}
	if c.Outstanding() != 3 {
		t.Errorf("Outstanding = %d, want 3", c.Outstanding())
	}
	if c.Stats().QuotaStalls == 0 {
		t.Error("quota stalls not counted")
	}
	// Completions free quota slots: issue resumes.
	for _, cb := range mem.callbacks {
		cb()
	}
	mem.callbacks = nil
	runCore(c, 5)
	if mem.reads <= 3 {
		t.Error("issue did not resume after completions")
	}
}

func TestLoadQuotaIgnoresHits(t *testing.T) {
	// Hit-path reads (deterministic latency) do not count as unresolved:
	// a throttled thread may still stream cache hits (§4.4).
	tr := &scriptTrace{recs: []rec{{bubbles: 0, line: 1}}}
	mem := &fakeMem{latency: 2} // everything "hits"
	c := New(0, Config{WindowSize: 32, IssueWidth: 4}, tr, mem, 1_000_000)
	c.SetLoadQuota(fixedQuota(1))
	runCore(c, 100)
	if c.Outstanding() != 0 {
		t.Errorf("Outstanding = %d, want 0 for hit-path loads", c.Outstanding())
	}
	if mem.reads < 50 {
		t.Errorf("hit-path loads throttled: only %d issued", mem.reads)
	}
}

func TestOutstandingReturnsToZero(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{bubbles: 3, line: 1}}}
	mem := &fakeMem{latency: -1}
	c := New(0, DefaultConfig(), tr, mem, 1_000_000)
	runCore(c, 20)
	for _, cb := range mem.callbacks {
		cb()
	}
	mem.callbacks = nil
	if c.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after all completions, want 0", c.Outstanding())
	}
}

// allocMem is a Memory without storage of its own growing over time: it
// rejects most loads (the LLC's blocked_ratio is 0.6-0.8 under attack),
// holds one callback-driven miss at a time and answers the rest as hits.
type allocMem struct {
	n       int
	pending func()
}

func (m *allocMem) Read(line uint64, thread int, now int64, done func()) ReadResult {
	m.n++
	switch {
	case m.n%4 != 0:
		return ReadResult{} // rejected: the attempt must cost nothing
	case m.pending == nil:
		m.pending = done
		return ReadResult{OK: true, ReadyAt: -1}
	default:
		return ReadResult{OK: true, ReadyAt: now + 5}
	}
}

func (m *allocMem) Write(line uint64, thread int, now int64) bool { return m.n%3 != 0 }

// TestTickDoesNotAllocate pins the alloc-free issue path: fetching trace
// records, attempting (and being refused) loads, issuing hits, misses with
// completion callbacks and stores, and retiring allocate nothing.
func TestTickDoesNotAllocate(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{0, 1, false}, {2, 2, false}, {0, 3, true}, {1, 4, false}}}
	mem := &allocMem{}
	c := New(0, Config{WindowSize: 16, IssueWidth: 4}, tr, mem, 1<<40)
	now := int64(0)
	step := func() {
		c.Tick(now)
		if now%7 == 0 && mem.pending != nil {
			done := mem.pending
			mem.pending = nil
			done()
		}
		now++
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Errorf("Core.Tick allocates %.2f objects per tick in steady state, want 0", avg)
	}
	if s := c.Stats(); s.Loads == 0 || s.Stores == 0 || s.BlockedStalls == 0 || c.Retired() == 0 {
		t.Fatalf("vacuous run: %+v", *s)
	}
}

// TestFetchCountsAsProgress: a Tick whose only effect is fetching the next
// trace record into the empty pending slot still reports progress — the
// skip-ahead loop would otherwise put a core to sleep one record early.
func TestFetchCountsAsProgress(t *testing.T) {
	tr := &scriptTrace{recs: []rec{{0, 7, false}}}
	c := New(0, Config{WindowSize: 8, IssueWidth: 2}, tr, &fakeMem{block: true}, 100)
	if !c.Tick(0) {
		t.Error("the Tick that fetched the first record reported no progress")
	}
	if c.Tick(1) {
		t.Error("a Tick that only retried a refused load reported progress")
	}
	if tr.i != 1 {
		t.Errorf("fetched %d records, want 1", tr.i)
	}
}
