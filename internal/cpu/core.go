// Package cpu implements a trace-driven out-of-order core model in the
// style of Ramulator 2.0's SimpleO3 core: a fixed-size instruction window,
// in-order retire, loads that occupy a window slot until data returns, and
// fire-and-forget stores. The window is stored run-length (see load): only
// loads own an entry, ready instructions are counted, which models the same
// machine cycle for cycle. The model is clocked at the memory-controller
// clock; the issue width is pre-scaled by the CPU/MC frequency ratio
// (Table 1: 4.2 GHz 4-wide core over a 2.4 GHz DDR5 command bus → 7
// instructions per memory cycle).
package cpu

// Config holds the core parameters.
type Config struct {
	WindowSize int // instruction window entries (Table 1: 128)
	IssueWidth int // instructions per memory-controller cycle
}

// DefaultConfig returns the Table 1 core configuration scaled to the
// memory-controller clock.
func DefaultConfig() Config {
	return Config{WindowSize: 128, IssueWidth: 7}
}

// Trace supplies a core's instruction stream. Next returns the number of
// non-memory instructions preceding the next memory access, the accessed
// cache-line address, and whether the access is a store. Traces are
// infinite: cores replay them for as long as the simulation runs.
type Trace interface {
	Next() (bubbles int64, line uint64, write bool)
}

// ReadResult reports how the memory hierarchy accepted a load.
type ReadResult struct {
	OK      bool  // false: rejected (MSHR quota/full, queue full); retry
	ReadyAt int64 // >= 0: data ready at this cycle (cache hit); -1: the callback fires later
}

// Memory is the core's port into the cache hierarchy.
type Memory interface {
	Read(line uint64, thread int, now int64, done func()) ReadResult
	Write(line uint64, thread int, now int64) bool
}

// LoadQuota limits a thread's unresolved memory requests at the load/store
// unit — the paper's §4.4 alternative throttling point for systems whose
// memory-request serving unit lacks cache-miss buffers (DMA engines,
// cacheless processors). BreakHammer implements this interface too.
type LoadQuota interface {
	MSHRQuota(thread int) int // maximum unresolved loads for the thread
}

// load is one window entry. Only loads need one: bubbles and stores enter
// the window already complete, so the window keeps them as counts — before
// on the load they precede, Core.tail behind the last load. That is exact
// because retire is in-order and width-limited per cycle: a ready
// instruction's only observable property is its position.
type load struct {
	before  int // ready instructions between the previous load and this one
	ready   bool
	readyAt int64 // -1 when completion is callback-driven

	// complete is the load-completion callback handed to Memory.Read for
	// the load in this entry. It is built once in New: an entry is not
	// reused until its load retires, which a callback-driven load only does
	// after the callback fired, so one func per entry serves every load it
	// ever holds.
	complete func()
}

func (l *load) done(now int64) bool {
	return l.ready || (l.readyAt >= 0 && now >= l.readyAt)
}

type memOp struct {
	line  uint64
	write bool
}

// Stats counts per-core events.
type Stats struct {
	Retired       int64
	FinishedAt    int64 // cycle the retire target was reached; -1 if not yet
	WindowStalls  int64 // cycles issue stopped because the window was full
	BlockedStalls int64 // cycles issue stopped because memory rejected an access
	Loads         int64
	Stores        int64
	QuotaStalls   int64 // cycles issue stopped by the LSU load quota (§4.4)
}

// Core is one hardware thread executing a trace.
type Core struct {
	id    int
	cfg   Config
	trace Trace
	mem   Memory

	// The run-length window: a ring of the loads in flight (oldest at
	// head), each counting the ready instructions before it, plus the ready
	// instructions behind the youngest load. count is the total occupancy.
	loads  []load
	head   int
	nloads int
	tail   int
	count  int

	// The fetched-but-unissued trace record: bubbles instructions, then
	// the memory access in pending (valid while hasPending).
	bubbles    int64
	pending    memOp
	hasPending bool

	quota       LoadQuota // optional LSU-level throttle (§4.4)
	outstanding int       // unresolved (miss-backed) loads in flight
	wakes       int64     // completion callbacks that can end a stall (Wakes)

	target int64
	stats  Stats
}

// New builds a core with the given hardware-thread id and retire target
// (the instruction count after which the core is "finished"; it keeps
// executing to preserve memory contention, as in the paper's methodology).
func New(id int, cfg Config, trace Trace, mem Memory, target int64) *Core {
	c := &Core{id: id, cfg: cfg, trace: trace, mem: mem, target: target}
	c.loads = make([]load, cfg.WindowSize)
	for i := range c.loads {
		l := &c.loads[i]
		l.complete = func() {
			l.ready = true
			c.outstanding--
			if c.quota != nil || l == &c.loads[c.head] {
				c.wakes++
			}
		}
	}
	c.stats.FinishedAt = -1
	return c
}

// ID returns the hardware-thread id.
func (c *Core) ID() int { return c.id }

// SetLoadQuota installs the §4.4 LSU-level throttle: the core stops
// issuing new loads while its unresolved-load count is at or above the
// quota. Cache hits resolve deterministically and are not counted —
// matching the paper's semantics that a throttled thread may still access
// data that is already cached.
func (c *Core) SetLoadQuota(q LoadQuota) { c.quota = q }

// Outstanding reports the unresolved (miss-backed) load count.
func (c *Core) Outstanding() int { return c.outstanding }

// Wakes counts the load-completion callbacks that can end a stall: the
// head load's, since retire waits on it, and under an LSU quota any
// load's, since each lowers Outstanding. A load behind the head can
// neither retire nor make room before the head does. A stalled core whose
// count has not moved since its last Tick, whose memory answers as
// before, and that has not reached NextWake would make no progress on
// another Tick.
func (c *Core) Wakes() int64 { return c.wakes }

// Stats returns the core's counters.
func (c *Core) Stats() *Stats { return &c.stats }

// Finished reports whether the core reached its retire target.
func (c *Core) Finished() bool { return c.stats.FinishedAt >= 0 }

// Retired returns the retired instruction count.
func (c *Core) Retired() int64 { return c.stats.Retired }

// IPC returns retired instructions per memory-controller cycle up to the
// finish point (or up to now if unfinished).
func (c *Core) IPC(now int64) float64 {
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
func (c *Core) Tick(now int64) bool {
	retired, count, bubbles, hadPending := c.stats.Retired, c.count, c.bubbles, c.hasPending
	c.retire(now)
	c.issue(now)
	// A record fetched into an empty pending slot flips hasPending; one
	// fetched right after its predecessor issued shows in count or Retired.
	return c.stats.Retired != retired || c.count != count ||
		c.bubbles != bubbles || c.hasPending != hadPending
}

// NextWake returns the next cycle at which this core could make progress
// on its own (the head instruction's known completion time), assuming the
// preceding Tick made no progress. Completions that arrive via memory
// callbacks have no known time; those show in Wakes instead.
// Returns a very large value when the core has no self-scheduled wake-up.
func (c *Core) NextWake(now int64) int64 {
	if c.count == 0 {
		return now + 1 // empty window: the core will try to issue next cycle
	}
	// Only a load at the very head can have a completion time still ahead.
	if l := &c.loads[c.head]; c.nloads > 0 && l.before == 0 && l.readyAt > now {
		return l.readyAt
	}
	return int64(1) << 62
}

// FFNext hands the core's next instruction-stream step to a functional
// fast-forward executor (internal/sim's sampled loop): the bubble count
// preceding the next memory access, the accessed line, and whether it is
// a store. A record the detailed loop fetched but had not fully issued
// is surrendered first (with its remaining bubbles), so switching modes
// never skips or replays part of the stream.
func (c *Core) FFNext() (bubbles int64, line uint64, write bool) {
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
func (c *Core) CreditRetired(n, now int64) {
	c.stats.Retired += n
	if c.stats.FinishedAt < 0 && c.stats.Retired >= c.target {
		c.stats.FinishedAt = now
	}
}

// DrainTick retires completed window slots without issuing new work —
// the detailed-to-fast-forward mode switch runs the memory side until
// every in-flight access lands while the core only drains. It reports
// whether anything retired.
func (c *Core) DrainTick(now int64) bool {
	before := c.count
	c.retire(now)
	return c.count != before
}

// WindowOccupied reports the instructions currently in the window; the
// mode-switch drain is complete when every core reaches zero.
func (c *Core) WindowOccupied() int { return c.count }

// retire removes up to IssueWidth completed instructions from the window
// head, in order: whole runs of ready instructions at a time, stopping at
// the first load whose data has not arrived.
func (c *Core) retire(now int64) {
	budget := min(c.cfg.IssueWidth, c.count)
	left := budget
	for left > 0 {
		if c.nloads == 0 {
			n := min(left, c.tail)
			c.tail -= n
			left -= n
			break
		}
		l := &c.loads[c.head]
		n := min(left, l.before)
		l.before -= n
		left -= n
		if left == 0 || !l.done(now) {
			break
		}
		if c.head++; c.head == len(c.loads) {
			c.head = 0
		}
		c.nloads--
		left--
	}
	if n := budget - left; n > 0 {
		c.count -= n
		c.stats.Retired += int64(n)
		if c.stats.FinishedAt < 0 && c.stats.Retired >= c.target {
			c.stats.FinishedAt = now
		}
	}
}

func (c *Core) issue(now int64) {
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.bubbles == 0 && !c.hasPending {
			b, line, wr := c.trace.Next()
			c.bubbles = b
			c.pending, c.hasPending = memOp{line: line, write: wr}, true
		}
		if c.bubbles > 0 {
			// A run of bubbles enters in one step, as far as the issue
			// width and the window allow.
			k := int(min(c.bubbles, int64(min(c.cfg.IssueWidth-n, len(c.loads)-c.count))))
			if k == 0 {
				c.stats.WindowStalls++
				return
			}
			c.tail += k
			c.count += k
			c.bubbles -= int64(k)
			n += k - 1
			continue
		}
		// Every instruction occupies a window slot; bail if full.
		if c.count >= len(c.loads) {
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
			c.tail++
			c.count++
			c.hasPending = false
			continue
		}
		// Load: enforce the §4.4 LSU quota, then ask the cache. The entry
		// joins the window (taking the ready run behind the previous load
		// as its own) only once the read is accepted.
		if c.quota != nil && c.outstanding >= c.quota.MSHRQuota(c.id) {
			c.stats.QuotaStalls++
			return
		}
		i := c.head + c.nloads
		if i >= len(c.loads) {
			i -= len(c.loads)
		}
		l := &c.loads[i]
		l.ready = false // before Read: the callback may set it
		res := c.mem.Read(op.line, c.id, now, l.complete)
		if !res.OK {
			c.stats.BlockedStalls++
			return
		}
		l.before, l.readyAt = c.tail, res.ReadyAt
		if res.ReadyAt < 0 {
			c.outstanding++ // unresolved until the completion callback fires
		}
		c.tail = 0
		c.nloads++
		c.count++
		c.stats.Loads++
		c.hasPending = false
	}
}
