package cpu

// The slot-per-instruction SimpleO3 window exactly as it stood before the
// run-length window replaced it, frozen as the differential oracle for
// TestWindowMatchesReference: every instruction, memory or not, owns one
// window slot. Do not "fix" or optimise this file; it exists to disagree
// with core.go when core.go is wrong.

type refSlot struct {
	ready   bool
	readyAt int64 // -1 when completion is callback-driven

	// complete is the load-completion callback handed to Memory.Read for a
	// load in this refSlot. It is built once in New: a refSlot is not reused
	// until it retires, which a callback-driven load only does after the
	// callback fired, so one func per refSlot serves every load it ever holds.
	complete func()
}

func (s *refSlot) done(now int64) bool {
	return s.ready || (s.readyAt >= 0 && now >= s.readyAt)
}

// refCore is one hardware thread executing a trace.
type refCore struct {
	id    int
	cfg   Config
	trace Trace
	mem   Memory

	window []refSlot
	head   int
	count  int

	// The fetched-but-unissued trace record: bubbles instructions, then
	// the memory access in pending (valid while hasPending).
	bubbles    int64
	pending    memOp
	hasPending bool

	quota       LoadQuota // optional LSU-level throttle (§4.4)
	outstanding int       // unresolved (miss-backed) loads in flight

	target int64
	stats  Stats
}

// New builds a core with the given hardware-thread id and retire target
// (the instruction count after which the core is "finished"; it keeps
// executing to preserve memory contention, as in the paper's methodology).
func newRefCore(id int, cfg Config, trace Trace, mem Memory, target int64) *refCore {
	c := &refCore{id: id, cfg: cfg, trace: trace, mem: mem, target: target}
	c.window = make([]refSlot, cfg.WindowSize)
	for i := range c.window {
		s := &c.window[i]
		s.complete = func() {
			s.ready = true
			c.outstanding--
		}
	}
	c.stats.FinishedAt = -1
	return c
}

// SetLoadQuota installs the §4.4 LSU-level throttle: the core stops
// issuing new loads while its unresolved-load count is at or above the
// quota. Cache hits resolve deterministically and are not counted —
// matching the paper's semantics that a throttled thread may still access
// data that is already cached.
func (c *refCore) SetLoadQuota(q LoadQuota) { c.quota = q }

// Outstanding reports the unresolved (miss-backed) load count.
func (c *refCore) Outstanding() int { return c.outstanding }

// Stats returns the core's counters.
func (c *refCore) Stats() *Stats { return &c.stats }

// Finished reports whether the core reached its retire target.
func (c *refCore) Finished() bool { return c.stats.FinishedAt >= 0 }

// Retired returns the retired instruction count.
func (c *refCore) Retired() int64 { return c.stats.Retired }

// IPC returns retired instructions per memory-controller cycle up to the
// finish point (or up to now if unfinished).
func (c *refCore) IPC(now int64) float64 {
	end := c.stats.FinishedAt
	if end < 0 {
		end = now
	}
	if end == 0 {
		return 0
	}
	n := c.stats.Retired
	if n > c.target {
		n = c.target
	}
	return float64(n) / float64(end)
}

// Tick advances the core by one memory-controller cycle: retire from the
// window head, then fetch/issue new instructions. It reports whether the
// core made progress — retired, issued, or fetched a new trace record —
// so the skip-ahead simulation loop can detect a fully stalled core. A
// tick that only bumps stall counters is not progress.
func (c *refCore) Tick(now int64) bool {
	retired, count, bubbles, hadPending := c.stats.Retired, c.count, c.bubbles, c.hasPending
	c.retire(now)
	c.issue(now)
	// A record fetched into an empty pending refSlot flips hasPending; one
	// fetched right after its predecessor issued shows in count or Retired.
	return c.stats.Retired != retired || c.count != count ||
		c.bubbles != bubbles || c.hasPending != hadPending
}

// NextWake returns the next cycle at which this core could make progress
// on its own (the head instruction's known completion time), assuming the
// preceding Tick made no progress. Completions that arrive via memory
// callbacks have no known time; those wake the system through memory
// controller progress instead. Returns a very large value when the core
// has no self-scheduled wake-up.
func (c *refCore) NextWake(now int64) int64 {
	if c.count == 0 {
		return now + 1 // empty window: the core will try to issue next cycle
	}
	if at := c.window[c.head].readyAt; at > now {
		return at
	}
	return int64(1) << 62
}

// FFNext hands the core's next instruction-stream step to a functional
// fast-forward executor (internal/sim's sampled loop): the bubble count
// preceding the next memory access, the accessed line, and whether it is
// a store. A record the detailed loop fetched but had not fully issued
// is surrendered first (with its remaining bubbles), so switching modes
// never skips or replays part of the stream.
func (c *refCore) FFNext() (bubbles int64, line uint64, write bool) {
	if c.hasPending {
		b := c.bubbles
		c.bubbles, c.hasPending = 0, false
		return b, c.pending.line, c.pending.write
	}
	return c.trace.Next()
}

// CreditRetired credits n instructions retired functionally at cycle
// now, crossing the finish line if the retire target is reached. The
// fast-forward executor calls this once per replay step; the detailed
// loop never does.
func (c *refCore) CreditRetired(n, now int64) {
	c.stats.Retired += n
	if c.stats.FinishedAt < 0 && c.stats.Retired >= c.target {
		c.stats.FinishedAt = now
	}
}

// DrainTick retires completed window slots without issuing new work —
// the detailed-to-fast-forward mode switch runs the memory side until
// every in-flight access lands while the core only drains. It reports
// whether anything retired.
func (c *refCore) DrainTick(now int64) bool {
	before := c.count
	c.retire(now)
	return c.count != before
}

// WindowOccupied reports the instructions currently in the window; the
// mode-switch drain is complete when every core reaches zero.
func (c *refCore) WindowOccupied() int { return c.count }

func (c *refCore) retire(now int64) {
	for n := 0; n < c.cfg.IssueWidth && c.count > 0; n++ {
		if !c.window[c.head].done(now) {
			return
		}
		c.head = (c.head + 1) % len(c.window)
		c.count--
		c.stats.Retired++
		if c.stats.FinishedAt < 0 && c.stats.Retired >= c.target {
			c.stats.FinishedAt = now
		}
	}
}

func (c *refCore) issue(now int64) {
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.bubbles == 0 && !c.hasPending {
			b, line, wr := c.trace.Next()
			c.bubbles = b
			c.pending, c.hasPending = memOp{line: line, write: wr}, true
		}
		if c.bubbles > 0 {
			if !c.push(now, 0) {
				c.stats.WindowStalls++
				return
			}
			c.bubbles--
			continue
		}
		// Every instruction occupies a window refSlot; bail if full.
		if c.count >= len(c.window) {
			c.stats.WindowStalls++
			return
		}
		op := c.pending
		if op.write {
			if !c.mem.Write(op.line, c.id, now) {
				c.stats.BlockedStalls++
				return
			}
			c.stats.Stores++
			c.push(now, 0)
			c.hasPending = false
			continue
		}
		// Load: enforce the §4.4 LSU quota, claim a window refSlot, then ask
		// the cache.
		if c.quota != nil && c.outstanding >= c.quota.MSHRQuota(c.id) {
			c.stats.QuotaStalls++
			return
		}
		tail := (c.head + c.count) % len(c.window)
		s := &c.window[tail]
		s.ready, s.readyAt = false, -1
		res := c.mem.Read(op.line, c.id, now, s.complete)
		if !res.OK {
			c.stats.BlockedStalls++
			return
		}
		if res.ReadyAt >= 0 {
			s.readyAt = res.ReadyAt
		} else {
			c.outstanding++ // unresolved until the completion callback fires
		}
		c.count++
		c.stats.Loads++
		c.hasPending = false
	}
}

func (c *refCore) push(now int64, _ int) bool {
	if c.count >= len(c.window) {
		return false
	}
	tail := (c.head + c.count) % len(c.window)
	s := &c.window[tail]
	s.ready, s.readyAt = true, now
	c.count++
	return true
}
