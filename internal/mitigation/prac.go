package mitigation

// PRAC implements Per Row Activation Counting (JESD79-5c, April 2024): the
// DRAM chip maintains an activation counter for every row; when a row's
// count crosses the back-off threshold the chip asserts the alert_n signal
// and the memory controller must issue a predetermined number of RFM
// commands (the back-off), during which the chip refreshes the
// highest-count rows. We use a back-off threshold of N_RH/2 and 4 RFM
// commands per alert, the RowHammer-secure configuration from prior work
// the paper cites (Canpolat et al., DRAMSec 2024).
type PRAC struct {
	issuer   Issuer
	obs      Observer
	backoff  int // RFM commands issued per alert
	alertThr int
	// pages holds the per-row counters in pages of pracPageRows rows,
	// bank by bank (bank*pagesPerBank + row/pracPageRows), each allocated
	// zeroed on its first activation: a bank's whole counter array is
	// RowsPerBank entries, most of which a run never touches.
	pages        []*[pracPageRows]uint32
	pagesPerBank int
	actions      int64
}

// pracPageRows is the number of rows per counter page (4 KiB).
const pracPageRows = 1024

// pracBackoffRFMs is the number of RFM commands the controller issues in
// response to one alert.
const pracBackoffRFMs = 4

// NewPRAC builds PRAC scaled to p.NRH.
func NewPRAC(p Params, issuer Issuer, obs Observer) *PRAC {
	thr := p.NRH / 2
	if thr < 1 {
		thr = 1
	}
	perBank := (p.RowsPerBank + pracPageRows - 1) / pracPageRows
	return &PRAC{
		issuer:       issuer,
		obs:          orNop(obs),
		backoff:      pracBackoffRFMs,
		alertThr:     thr,
		pages:        make([]*[pracPageRows]uint32, p.Banks*perBank),
		pagesPerBank: perBank,
	}
}

// Name implements Mechanism.
func (m *PRAC) Name() string { return "prac" }

// AlertThreshold returns the per-row count that triggers a back-off.
func (m *PRAC) AlertThreshold() int { return m.alertThr }

// Actions implements Mechanism.
func (m *PRAC) Actions() int64 { return m.actions }

// RowCount returns a row's current activation count (testing hook).
func (m *PRAC) RowCount(bank, row int) int {
	pg := m.pages[bank*m.pagesPerBank+row/pracPageRows]
	if pg == nil {
		return 0
	}
	return int(pg[row%pracPageRows])
}

// OnActivate implements Mechanism.
func (m *PRAC) OnActivate(bank, row, thread int, now int64) {
	pg := &m.pages[bank*m.pagesPerBank+row/pracPageRows]
	if *pg == nil {
		*pg = new([pracPageRows]uint32)
	}
	c := &(*pg)[row%pracPageRows]
	*c++
	if int(*c) < m.alertThr {
		return
	}
	// Alert: the chip refreshes this aggressor's neighbourhood during the
	// back-off, so the aggressor's counter resets.
	*c = 0
	m.issuer.RequestBackoff(bank, m.backoff)
	m.actions++
	m.obs.OnPreventiveAction(now)
}
