package mitigation

// AQUA (Saxena et al., MICRO 2022) tracks frequent aggressors with a
// Misra-Gries table (like Graphene) but instead of refreshing victims it
// migrates the aggressor row into a quarantine region of the bank, breaking
// the physical adjacency between aggressor and victims. The migration is a
// full-row copy that blocks the bank, which is what makes AQUA's preventive
// action expensive (§8.1: AQUA's latency subplot needs its own scale).
//
// We model the migration's bank-blocking cost and the quarantine pointer
// rotation; the address-remap indirection itself is not needed for the
// paper's performance experiments.
type AQUA struct {
	params    Params
	issuer    Issuer
	obs       Observer
	threshold int
	tables    []*MisraGries
	qHead     []int // next quarantine row per bank
	qBase     int   // first quarantine row index
	nextReset int64
	actions   int64
}

// aquaQuarantineFrac is the fraction of each bank reserved as the
// quarantine region (AQUA provisions ~1-4% of DRAM).
const aquaQuarantineFrac = 32 // 1/32nd of the rows

// NewAQUA builds AQUA scaled to p.NRH (migration threshold N_RH/2).
func NewAQUA(p Params, issuer Issuer, obs Observer) *AQUA {
	threshold := p.NRH / 2
	if threshold < 1 {
		threshold = 1
	}
	budget := int(p.REFW / p.RC)
	entries := budget/threshold + 1
	a := &AQUA{
		params:    p,
		issuer:    issuer,
		obs:       orNop(obs),
		threshold: threshold,
		tables:    make([]*MisraGries, p.Banks),
		qHead:     make([]int, p.Banks),
		qBase:     p.RowsPerBank - p.RowsPerBank/aquaQuarantineFrac,
		nextReset: p.REFW,
	}
	for i := range a.tables {
		a.tables[i] = NewMisraGries(entries)
		a.qHead[i] = a.qBase
	}
	return a
}

// Name implements Mechanism.
func (m *AQUA) Name() string { return "aqua" }

// Threshold returns the migration trigger threshold.
func (m *AQUA) Threshold() int { return m.threshold }

// Actions implements Mechanism.
func (m *AQUA) Actions() int64 { return m.actions }

// OnActivate implements Mechanism.
func (m *AQUA) OnActivate(bank, row, thread int, now int64) {
	if now >= m.nextReset {
		for _, t := range m.tables {
			t.Reset()
		}
		m.nextReset += m.params.REFW
	}
	if row >= m.qBase {
		return // accesses inside the quarantine region are not tracked
	}
	if m.tables[bank].Observe(row) < m.threshold {
		return
	}
	m.tables[bank].ResetKey(row)
	dst := m.qHead[bank]
	m.qHead[bank]++
	if m.qHead[bank] >= m.params.RowsPerBank {
		m.qHead[bank] = m.qBase // wrap: quarantine is a circular buffer
	}
	m.issuer.RequestMigration(bank, row, dst)
	m.actions++
	m.obs.OnPreventiveAction(now)
}
