package mitigation

// Graphene (Park et al., MICRO 2020) tracks per-bank frequent aggressor
// rows with a Misra-Gries table and preventively refreshes a row's
// neighbours when its estimated activation count reaches the refresh
// threshold T = N_RH / 4 (one half margin for double-sided attacks and one
// half for counts carried across the table reset, per the Graphene
// methodology). Tables reset every tREFW. The table is sized so that the
// per-window activation budget of a bank cannot overflow it:
//
//	entries = (tREFW / tRC) / T + 1
type Graphene struct {
	params    Params
	issuer    Issuer
	obs       Observer
	threshold int
	tables    []*MisraGries
	nextReset int64
	actions   int64
}

// NewGraphene builds per-bank Misra-Gries trackers scaled to p.NRH.
func NewGraphene(p Params, issuer Issuer, obs Observer) *Graphene {
	threshold := p.NRH / 4
	if threshold < 1 {
		threshold = 1
	}
	budget := int(p.REFW / p.RC)
	entries := budget/threshold + 1
	g := &Graphene{
		params:    p,
		issuer:    issuer,
		obs:       orNop(obs),
		threshold: threshold,
		tables:    make([]*MisraGries, p.Banks),
		nextReset: p.REFW,
	}
	for i := range g.tables {
		g.tables[i] = NewMisraGries(entries)
	}
	return g
}

// Name implements Mechanism.
func (m *Graphene) Name() string { return "graphene" }

// Threshold returns the refresh trigger threshold.
func (m *Graphene) Threshold() int { return m.threshold }

// TableEntries returns the per-bank table capacity.
func (m *Graphene) TableEntries() int { return m.tables[0].capacity }

// Actions implements Mechanism.
func (m *Graphene) Actions() int64 { return m.actions }

// OnActivate implements Mechanism.
func (m *Graphene) OnActivate(bank, row, thread int, now int64) {
	if now >= m.nextReset {
		for _, t := range m.tables {
			t.Reset()
		}
		m.nextReset += m.params.REFW
	}
	if m.tables[bank].Observe(row) < m.threshold {
		return
	}
	m.tables[bank].ResetKey(row)
	m.issuer.RequestVRR(bank, VictimRows(row, m.params.RowsPerBank, m.params.BlastRadius))
	m.actions++
	m.obs.OnPreventiveAction(now)
}
