// Package cache implements the shared last-level cache (LLC) with a
// miss-status-holding-register (MSHR) file. The MSHR file enforces
// per-thread allocation quotas, which is the lever BreakHammer uses to
// throttle suspect threads (§4.3 of the paper): a throttled thread may
// still hit in the cache and merge into in-flight MSHRs, but may not
// allocate new ones beyond its quota.
package cache

// Config describes the LLC geometry (Table 1: 8 MiB, 8-way, 64 B lines).
type Config struct {
	SizeBytes  int   // total capacity
	Ways       int   // associativity
	LineBytes  int   // cache line size
	MSHRs      int   // total miss-status holding registers
	HitLatency int64 // cycles from access to data for a hit
}

// DefaultConfig returns the Table 1 LLC configuration. The MSHR count and
// hit latency are not in Table 1; 64 MSHRs matches the memory controller's
// 64-entry read queue, and the hit latency approximates 40 CPU cycles at
// the 4.2 GHz / 2.4 GHz clock ratio.
func DefaultConfig() Config {
	return Config{
		SizeBytes:  8 << 20,
		Ways:       8,
		LineBytes:  64,
		MSHRs:      64,
		HitLatency: 23,
	}
}

// Sets returns the number of cache sets.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Backend is the memory side of the cache: the memory controller.
// Enqueue methods return false when the corresponding request queue is
// full; the cache retries later.
type Backend interface {
	EnqueueRead(line uint64, thread int) bool
	EnqueueWrite(line uint64, thread int) bool
}

// QuotaProvider supplies the per-thread MSHR allocation quota.
// BreakHammer implements this; a nil provider means "no limit".
type QuotaProvider interface {
	MSHRQuota(thread int) int
}

// ReadOutcome classifies the result of a read access.
type ReadOutcome int

// Read access outcomes.
const (
	ReadHit     ReadOutcome = iota // data available after HitLatency
	ReadMiss                       // MSHR allocated, callback on fill
	ReadMSHRHit                    // merged into an in-flight MSHR
	ReadBlocked                    // no MSHR / over quota / queue full: retry
)

// Stats counts cache events, per thread.
type Stats struct {
	Hits     []int64
	Misses   []int64
	MSHRHits []int64
	// The three *Blocks counters count refusal episodes, not attempts: a
	// thread's run of consecutive refused accesses counts once, in the
	// category of its first refusal. A stalled core retries only on the
	// cycles the simulation driver ticks it, and only the first retry
	// counts, so the counters do not depend on which idle cycles
	// sim.System.runDetailed skipped.
	QuotaBlocks  []int64 // refusal episodes begun by a thread quota
	MSHRBlocks   []int64 // refusal episodes begun by a full MSHR file
	QueueBlocks  []int64 // refusal episodes begun by a full MC read queue
	Writebacks   int64
	WriteMisses  []int64
	WriteHits    []int64
	FillsDropped int64 // fills for lines nobody waits on (should stay 0)
}

// refusal is a thread's latest refused access. While the thread's
// accepted-access count still equals at, a new refusal continues the same
// episode (see Stats). standing says the thread's latest Read or Write
// was this refusal. waits is the release count whose move may lift it —
// the thread's own for a quota refusal, the total for a full MSHR file,
// nil for a full read queue, which only memory progress drains — and mark
// its value at the refusal.
type refusal struct {
	at       int64 // -1 before any refusal
	standing bool
	waits    *int64
	mark     int64
}

type mshr struct {
	line     uint64
	thread   int // allocating thread (owns the quota slot)
	waiters  []func()
	wantFill bool // a write miss marks the filled line dirty
}

// LLC is a set-associative write-back, write-allocate shared cache.
type LLC struct {
	cfg     Config
	backend Backend
	quota   QuotaProvider

	// The sets as flat parallel arrays indexed set*ways+way, so a lookup
	// scans one contiguous run of tags. tags holds line+1; 0 is invalid.
	tags    []uint64
	lru     []uint64
	dirty   []bool
	setMask uint64
	lruTick uint64

	// The MSHR file: an open-addressed table (a power of two >= 4 x MSHRs,
	// so it is never more than a quarter full) probed linearly from a
	// multiplicative hash of the line; Fill deletes by backward shift.
	mshrs     []*mshr
	mshrShift uint    // 64 - log2(len(mshrs))
	freeMSHRs []*mshr // released registers, reused with their waiter storage
	inUse     []int   // per-thread MSHR occupancy
	totalUsed int

	// Writebacks the MC queue rejected, retried in Tick: a FIFO that pops
	// by advancing wbHead and rewinds once drained, so the backing array
	// is reused instead of walked forward and reallocated.
	pendingWB []uint64
	wbHead    int

	// refused[t] is thread t's latest refusal (see refusal); releases and
	// released[t] count the MSHRs released in total and of thread t's
	// allocations, the events a refusal may wait on.
	refused  []refusal
	releases int64
	released []int64

	stats Stats
}

// New constructs an LLC for the given number of hardware threads.
func New(cfg Config, threads int, backend Backend) *LLC {
	sets := cfg.Sets()
	l := &LLC{
		cfg:       cfg,
		backend:   backend,
		tags:      make([]uint64, sets*cfg.Ways),
		lru:       make([]uint64, sets*cfg.Ways),
		dirty:     make([]bool, sets*cfg.Ways),
		setMask:   uint64(sets - 1),
		mshrShift: 64,
		inUse:     make([]int, threads),
		refused:   make([]refusal, threads),
		released:  make([]int64, threads),
	}
	for t := range l.refused {
		l.refused[t].at = -1
	}
	size := 1
	for ; size < 4*cfg.MSHRs; size *= 2 {
		l.mshrShift--
	}
	l.mshrs = make([]*mshr, size)
	l.stats = Stats{
		Hits:        make([]int64, threads),
		Misses:      make([]int64, threads),
		MSHRHits:    make([]int64, threads),
		QuotaBlocks: make([]int64, threads),
		MSHRBlocks:  make([]int64, threads),
		QueueBlocks: make([]int64, threads),
		WriteMisses: make([]int64, threads),
		WriteHits:   make([]int64, threads),
	}
	return l
}

// SetQuotaProvider installs the per-thread MSHR quota source.
func (l *LLC) SetQuotaProvider(q QuotaProvider) { l.quota = q }

// Stats returns the accumulated counters.
func (l *LLC) Stats() *Stats { return &l.stats }

// InFlight reports the number of occupied MSHRs.
func (l *LLC) InFlight() int { return l.totalUsed }

// InFlightByThread reports the number of MSHRs held by one thread.
func (l *LLC) InFlightByThread(t int) int { return l.inUse[t] }

// lookup returns the index of a cached line in the flat arrays, or -1.
func (l *LLC) lookup(lineAddr uint64) int {
	base := int(lineAddr&l.setMask) * l.cfg.Ways
	for i, tag := range l.tags[base : base+l.cfg.Ways] {
		if tag == lineAddr+1 {
			return base + i
		}
	}
	return -1
}

// touch makes way i the most recently used of its set.
func (l *LLC) touch(i int) {
	l.lruTick++
	l.lru[i] = l.lruTick
}

// mshrHome is the slot a line's probe sequence starts from.
func (l *LLC) mshrHome(lineAddr uint64) int {
	return int(lineAddr * 0x9E3779B97F4A7C15 >> l.mshrShift)
}

// findMSHR returns the in-flight register for a line (nil if none) and its
// slot, or the empty slot where the line's register would go.
func (l *LLC) findMSHR(lineAddr uint64) (int, *mshr) {
	for i := l.mshrHome(lineAddr); ; i = (i + 1) & (len(l.mshrs) - 1) {
		if m := l.mshrs[i]; m == nil || m.line == lineAddr {
			return i, m
		}
	}
}

// removeMSHR empties slot i and shifts the registers probing past it back
// over the hole, so no probe sequence is ever cut by an empty slot.
func (l *LLC) removeMSHR(i int) {
	mask := len(l.mshrs) - 1
	for j := (i + 1) & mask; l.mshrs[j] != nil; j = (j + 1) & mask {
		// The register at j may move to i only if its home is not in (i, j].
		if (j-l.mshrHome(l.mshrs[j].line))&mask >= (j-i)&mask {
			l.mshrs[i] = l.mshrs[j]
			i = j
		}
	}
	l.mshrs[i] = nil
}

// quotaFor returns the MSHR quota of a thread.
func (l *LLC) quotaFor(thread int) int {
	if l.quota == nil {
		return l.cfg.MSHRs
	}
	q := l.quota.MSHRQuota(thread)
	if q > l.cfg.MSHRs {
		return l.cfg.MSHRs
	}
	return q
}

// refuse records a refused access of thread that waits on the release
// count waits (nil: on memory progress), and counts it in counter if it
// begins a refusal episode: if the thread had an access accepted — a hit,
// a merge or a miss, detailed or functional — since its previous refusal.
// Every accepted access bumps one of the thread's five outcome counters,
// so the accepting paths need no bookkeeping of their own.
func (l *LLC) refuse(thread int, counter []int64, waits *int64) {
	s, r := &l.stats, &l.refused[thread]
	accepted := s.Hits[thread] + s.Misses[thread] + s.MSHRHits[thread] + s.WriteHits[thread] + s.WriteMisses[thread]
	if r.at != accepted {
		r.at = accepted
		counter[thread]++
	}
	r.standing, r.waits = true, waits
	if waits != nil {
		r.mark = *waits
	}
}

// RefusalLifted reports whether thread's latest refusal may have lifted,
// so that a retry of the refused access could now be accepted;
// memProgress says whether the memory side progressed since the refusal.
// A quota refusal lifts only when an MSHR the thread allocated is
// released, write-miss registers included (a quota only rises at a
// BreakHammer window rotation or a BlockHammer activation, which this
// method does not see: the simulation loop wakes every core then); a full
// MSHR file lifts at any release; a full read queue only with memory
// progress. It is false when the thread's latest Read or Write was
// accepted: nothing in the LLC holds the thread back then. The answer
// assumes no other thread accesses the refused line — threads own
// disjoint address slices — since another thread's miss on it would turn
// the refusal into a merge.
func (l *LLC) RefusalLifted(thread int, memProgress bool) bool {
	r := &l.refused[thread]
	if !r.standing {
		return false
	}
	if r.waits == nil {
		return memProgress
	}
	return *r.waits != r.mark
}

// Read performs a demand read for a cache line. On ReadMiss and
// ReadMSHRHit the callback fires when the fill completes; on ReadHit the
// caller should treat the data as ready HitLatency cycles later; on
// ReadBlocked the caller must retry.
func (l *LLC) Read(lineAddr uint64, thread int, done func()) ReadOutcome {
	l.refused[thread].standing = false // unless refuse says otherwise
	if i := l.lookup(lineAddr); i >= 0 {
		l.touch(i)
		l.stats.Hits[thread]++
		return ReadHit
	}
	slot, m := l.findMSHR(lineAddr)
	if m != nil {
		m.waiters = append(m.waiters, done)
		l.stats.MSHRHits[thread]++
		return ReadMSHRHit
	}
	// Need a fresh MSHR: check total capacity, then the thread quota
	// (BreakHammer's throttling point), then MC queue space.
	if l.totalUsed >= l.cfg.MSHRs {
		l.refuse(thread, l.stats.MSHRBlocks, &l.releases)
		return ReadBlocked
	}
	if l.inUse[thread] >= l.quotaFor(thread) {
		l.refuse(thread, l.stats.QuotaBlocks, &l.released[thread])
		return ReadBlocked
	}
	if !l.backend.EnqueueRead(lineAddr, thread) {
		l.refuse(thread, l.stats.QueueBlocks, nil)
		return ReadBlocked
	}
	m = l.allocMSHR(slot, lineAddr, thread, false)
	m.waiters = append(m.waiters, done)
	l.stats.Misses[thread]++
	return ReadMiss
}

// Write performs a store. Stores are fire-and-forget from the core's
// perspective (a write buffer is assumed); a write miss allocates an MSHR
// like a read (write-allocate) and marks the line dirty when it fills.
// It returns false when the store could not be accepted (retry).
func (l *LLC) Write(lineAddr uint64, thread int) bool {
	l.refused[thread].standing = false // unless refuse says otherwise
	if i := l.lookup(lineAddr); i >= 0 {
		l.touch(i)
		l.dirty[i] = true
		l.stats.WriteHits[thread]++
		return true
	}
	slot, m := l.findMSHR(lineAddr)
	if m != nil {
		m.wantFill = true
		l.stats.WriteHits[thread]++ // merged; counts as hit-in-flight
		return true
	}
	if l.totalUsed >= l.cfg.MSHRs {
		l.refuse(thread, l.stats.MSHRBlocks, &l.releases)
		return false
	}
	if l.inUse[thread] >= l.quotaFor(thread) {
		l.refuse(thread, l.stats.QuotaBlocks, &l.released[thread])
		return false
	}
	if !l.backend.EnqueueRead(lineAddr, thread) {
		l.refuse(thread, l.stats.QueueBlocks, nil)
		return false
	}
	l.allocMSHR(slot, lineAddr, thread, true)
	l.stats.WriteMisses[thread]++
	return true
}

// allocMSHR claims a register for a missing line on behalf of thread,
// recycling a released one (and its waiter slice) when there is one, and
// files it in the empty slot findMSHR returned for the line.
func (l *LLC) allocMSHR(slot int, lineAddr uint64, thread int, wantFill bool) *mshr {
	var m *mshr
	if n := len(l.freeMSHRs); n > 0 {
		m = l.freeMSHRs[n-1]
		l.freeMSHRs = l.freeMSHRs[:n-1]
	} else {
		m = &mshr{}
	}
	m.line, m.thread, m.wantFill = lineAddr, thread, wantFill
	l.mshrs[slot] = m
	l.inUse[thread]++
	l.totalUsed++
	return m
}

// AccessFunctional performs one timing-free access for the functional
// fast-forward mode (internal/sim's sampled loop): hits touch LRU (and
// dirty the line on a store), misses install the line immediately —
// write-allocate, no MSHR, no backend traffic. When the install evicts
// a dirty victim the victim's line address is returned so the caller can
// route the writeback through its functional DRAM row state; nothing is
// enqueued to the backend. Hit/miss/writeback statistics accumulate in
// the same counters as the detailed path. The caller guarantees no
// MSHRs are in flight (the mode-switch drain).
func (l *LLC) AccessFunctional(lineAddr uint64, thread int, write bool) (hit bool, victim uint64, victimDirty bool) {
	if i := l.lookup(lineAddr); i >= 0 {
		l.touch(i)
		if write {
			l.dirty[i] = true
			l.stats.WriteHits[thread]++
		} else {
			l.stats.Hits[thread]++
		}
		return true, 0, false
	}
	if write {
		l.stats.WriteMisses[thread]++
	} else {
		l.stats.Misses[thread]++
	}
	if victim, victimDirty = l.place(lineAddr, write); victimDirty {
		l.stats.Writebacks++
	}
	return false, victim, victimDirty
}

// Fill delivers a line from memory: it releases the MSHR, installs the
// line (possibly evicting a dirty victim), and wakes all waiters.
func (l *LLC) Fill(lineAddr uint64) {
	slot, m := l.findMSHR(lineAddr)
	if m == nil {
		l.stats.FillsDropped++
		return
	}
	l.removeMSHR(slot)
	l.inUse[m.thread]--
	l.totalUsed--
	l.releases++
	l.released[m.thread]++

	if victim, dirty := l.place(lineAddr, m.wantFill); dirty {
		l.writeback(victim)
	}
	for _, w := range m.waiters {
		if w != nil {
			w()
		}
	}
	// Released only now: a waiter may re-enter Read and claim a register.
	clear(m.waiters)
	m.waiters = m.waiters[:0]
	l.freeMSHRs = append(l.freeMSHRs, m)
}

// place puts a line into its set over the first invalid way, else the
// least recently used one, and reports the line it evicted if that was
// dirty: the caller owns the writeback.
func (l *LLC) place(lineAddr uint64, dirty bool) (victim uint64, victimDirty bool) {
	base := int(lineAddr&l.setMask) * l.cfg.Ways
	v := base
	for i := base; i < base+l.cfg.Ways; i++ {
		if l.tags[i] == 0 {
			v = i
			break
		}
		if l.lru[i] < l.lru[v] {
			v = i
		}
	}
	if l.dirty[v] { // only a valid way is ever dirty
		victim, victimDirty = l.tags[v]-1, true
	}
	l.tags[v], l.dirty[v] = lineAddr+1, dirty
	l.touch(v)
	return victim, victimDirty
}

// writeback enqueues an evicted dirty line as system traffic: thread -1,
// attributable to no thread (memctrl.Request.Thread).
func (l *LLC) writeback(lineAddr uint64) {
	l.stats.Writebacks++
	if !l.backend.EnqueueWrite(lineAddr, -1) {
		l.pendingWB = append(l.pendingWB, lineAddr)
	}
}

// Tick retries writebacks that the memory controller previously rejected.
// It reports whether any writeback drained (progress for the skip-ahead
// simulation loop).
func (l *LLC) Tick() bool {
	drained := false
	for l.wbHead < len(l.pendingWB) {
		if !l.backend.EnqueueWrite(l.pendingWB[l.wbHead], -1) {
			return drained
		}
		l.wbHead++
		drained = true
	}
	if drained {
		l.pendingWB, l.wbHead = l.pendingWB[:0], 0
	}
	return drained
}
