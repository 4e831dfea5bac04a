package mitigation

// BlockHammer (Yağlıkçı et al., HPCA 2021) is the throttling-based
// RowHammer *prevention* baseline the paper compares against in §8.3.
// Its RowBlocker tracks per-row activation rates with two time-interleaved
// counting Bloom filters and delays activations to blacklisted rows so
// that no row can be activated more than N_RH times within a refresh
// window. Unlike BreakHammer, BlockHammer blocks the rows themselves —
// so at low N_RH even benign applications stall behind the delay (§8.3's
// observed collapse), because benign rows also cross the blacklist
// threshold (Table 3).
//
// BlockHammer is standalone: it is never paired with BreakHammer and it
// performs no preventive DRAM commands; its cost is the activation delay,
// enforced through the controller's ActGate.
type BlockHammer struct {
	params Params
	nbl    uint32 // blacklist threshold
	tDelay int64  // minimum gap between ACTs to a blacklisted row

	filters   [][2]*CountingBloom // per bank, two time-interleaved filters
	active    int
	nextSwap  int64
	halfEpoch int64

	lastACT map[uint64]int64 // (bank,row) -> last ACT cycle, blacklisted rows only

	// AttackThrottler state: the per-thread RowHammer likelihood index
	// (RHLI) is the fraction of a thread's activations that hit
	// blacklisted rows; a thread's in-flight request quota shrinks in
	// proportion (the BlockHammer paper's second component).
	threadACTs    []int64
	threadBlkACTs []int64
	maxQuota      int

	actions int64 // activations observed above the blacklist threshold
}

const (
	blockHammerCBFCounters = 1024
	blockHammerCBFHashes   = 4
)

// NewBlockHammer builds the RowBlocker scaled to p.NRH.
func NewBlockHammer(p Params) *BlockHammer {
	nbl := uint32(p.NRH / 2)
	if nbl < 1 {
		nbl = 1
	}
	// A blacklisted row may be activated at most (N_RH - N_BL) more times
	// per window; spreading those over tREFW gives the safe delay.
	budget := int64(p.NRH) - int64(nbl)
	if budget < 1 {
		budget = 1
	}
	b := &BlockHammer{
		params:        p,
		nbl:           nbl,
		tDelay:        p.REFW / budget,
		filters:       make([][2]*CountingBloom, p.Banks),
		halfEpoch:     p.REFW / 2,
		lastACT:       make(map[uint64]int64),
		threadACTs:    make([]int64, p.Threads),
		threadBlkACTs: make([]int64, p.Threads),
		maxQuota:      64,
	}
	b.nextSwap = b.halfEpoch
	for i := range b.filters {
		seed := uint64(p.Seed) + uint64(i)*0x9e3779b9
		b.filters[i][0] = NewCountingBloom(blockHammerCBFCounters, blockHammerCBFHashes, seed)
		b.filters[i][1] = NewCountingBloom(blockHammerCBFCounters, blockHammerCBFHashes, seed^0xabcdef)
	}
	return b
}

// Name implements Mechanism.
func (m *BlockHammer) Name() string { return "blockhammer" }

// Actions implements Mechanism: activations that hit the blacklist.
func (m *BlockHammer) Actions() int64 { return m.actions }

// Threshold returns the blacklist threshold N_BL.
func (m *BlockHammer) Threshold() uint32 { return m.nbl }

// Delay returns the enforced inter-activation gap for blacklisted rows.
func (m *BlockHammer) Delay() int64 { return m.tDelay }

// ensureEpoch applies the epoch swaps due by now. Only OnActivate calls
// it, so a swap takes effect at the channel's first activation at or
// after its cycle: ActAllowedAt already caps every delay at the swap, and
// the AttackThrottler's quotas rise with an activation, which the system
// loop sees as memory progress.
func (m *BlockHammer) ensureEpoch(now int64) {
	for now >= m.nextSwap {
		// The active filter has lived a full lifetime: clear it and make
		// the other (still warm) filter active — same scheme as
		// BreakHammer's counter sets (Fig. 4 cites BlockHammer for it).
		for _, f := range m.filters {
			f[m.active].Reset()
		}
		m.active = 1 - m.active
		m.nextSwap += m.halfEpoch
		m.lastACT = make(map[uint64]int64)
		for i := range m.threadACTs {
			m.threadACTs[i] = 0
			m.threadBlkACTs[i] = 0
		}
	}
}

// OnActivate implements Mechanism: trains both filters and the
// AttackThrottler's per-thread RHLI counters.
func (m *BlockHammer) OnActivate(bank, row, thread int, now int64) {
	m.ensureEpoch(now)
	key := uint64(row)
	m.filters[bank][0].Observe(key)
	m.filters[bank][1].Observe(key)
	blacklisted := m.filters[bank][m.active].Estimate(key) >= m.nbl
	if blacklisted {
		m.actions++
		m.lastACT[rccKey(bank, row)] = now
	}
	if thread >= 0 && thread < len(m.threadACTs) {
		m.threadACTs[thread]++
		if blacklisted {
			m.threadBlkACTs[thread]++
		}
	}
}

// SetMaxQuota configures the AttackThrottler's full in-flight quota
// (the system's MSHR count).
func (m *BlockHammer) SetMaxQuota(q int) { m.maxQuota = q }

// RHLI returns a thread's RowHammer likelihood index: the fraction of its
// activations that targeted blacklisted rows in the current epoch.
func (m *BlockHammer) RHLI(thread int) float64 {
	if thread < 0 || thread >= len(m.threadACTs) || m.threadACTs[thread] == 0 {
		return 0
	}
	return float64(m.threadBlkACTs[thread]) / float64(m.threadACTs[thread])
}

// MSHRQuota implements the AttackThrottler: a thread's in-flight request
// quota shrinks linearly with its RHLI (never below one so the thread can
// still make progress — BlockHammer prevents bitflips with the row delay,
// not by starving threads outright).
func (m *BlockHammer) MSHRQuota(thread int) int {
	q := int(float64(m.maxQuota) * (1 - m.RHLI(thread)))
	if q < 1 {
		q = 1
	}
	return q
}

// ActAllowedAt implements the memory controller's ActGate: a blacklisted
// row's activation waits until tDelay after its previous one, or until
// the next epoch swap forgets that one, whichever comes first; any other
// row is allowed at once (0). lastACT holds only rows blacklisted at their
// activation, and the active filter only grows within an epoch. The
// answer changes only with OnActivate.
func (m *BlockHammer) ActAllowedAt(bank, row, thread int, now int64) int64 {
	last, seen := m.lastACT[rccKey(bank, row)]
	if !seen {
		return 0
	}
	return min(last+m.tDelay, m.nextSwap)
}
