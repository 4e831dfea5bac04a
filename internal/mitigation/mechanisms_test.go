package mitigation

import (
	"testing"
)

// fakeIssuer records requested preventive actions.
type fakeIssuer struct {
	vrrs       [][2]int // (bank, row) pairs
	rfms       []int
	auxes      []int
	migrations [][3]int
	backoffs   [][2]int
}

func (f *fakeIssuer) RequestVRR(bank int, rows []int) {
	for _, r := range rows {
		f.vrrs = append(f.vrrs, [2]int{bank, r})
	}
}
func (f *fakeIssuer) RequestRFM(bank int) { f.rfms = append(f.rfms, bank) }
func (f *fakeIssuer) RequestAux(bank int) { f.auxes = append(f.auxes, bank) }
func (f *fakeIssuer) RequestMigration(bank, src, dst int) {
	f.migrations = append(f.migrations, [3]int{bank, src, dst})
}
func (f *fakeIssuer) RequestBackoff(bank, n int) {
	f.backoffs = append(f.backoffs, [2]int{bank, n})
}

// fakeObserver records score-attribution signals.
type fakeObserver struct {
	proportional int
	perThread    map[int]int
}

func newFakeObserver() *fakeObserver { return &fakeObserver{perThread: map[int]int{}} }

func (f *fakeObserver) OnPreventiveAction(now int64) { f.proportional++ }
func (f *fakeObserver) OnThreadPreventiveAction(thread int, now int64) {
	f.perThread[thread]++
}

func testParams(nrh int) Params {
	return Params{
		NRH:         nrh,
		BlastRadius: 2,
		Banks:       32,
		RowsPerBank: 1 << 16,
		Threads:     4,
		REFW:        76_800_000, // 32 ms at 2.4 GHz
		REFI:        9360,
		RC:          116,
		Seed:        1,
	}
}

func TestVictimRowsClipped(t *testing.T) {
	vs := VictimRows(0, 100, 2)
	for _, v := range vs {
		if v < 0 || v >= 100 {
			t.Errorf("victim %d out of bank", v)
		}
	}
	if len(vs) != 2 { // rows 1 and 2 only
		t.Errorf("victims at edge = %v, want 2 rows", vs)
	}
	vs = VictimRows(50, 100, 2)
	if len(vs) != 4 {
		t.Errorf("interior victims = %v, want 4 rows", vs)
	}
}

func TestNewRegistry(t *testing.T) {
	iss := &fakeIssuer{}
	for _, name := range Names() {
		m, err := New(name, testParams(1024), iss, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, m.Name())
		}
	}
	if m, err := New("none", testParams(1024), iss, nil); err != nil || m != nil {
		t.Errorf("New(none) = (%v, %v), want (nil, nil)", m, err)
	}
	if _, err := New("bogus", testParams(1024), iss, nil); err == nil {
		t.Error("New(bogus) did not error")
	}
	if _, err := New("para", Params{}, iss, nil); err == nil {
		t.Error("New with zero params did not error")
	}
	if m, err := New("blockhammer", testParams(1024), iss, nil); err != nil || m.Name() != "blockhammer" {
		t.Errorf("New(blockhammer) = (%v, %v)", m, err)
	}
}

func TestPARAProbabilityScaling(t *testing.T) {
	iss := &fakeIssuer{}
	hi := NewPARA(testParams(4096), iss, nil)
	lo := NewPARA(testParams(64), iss, nil)
	if hi.Probability() >= lo.Probability() {
		t.Errorf("p(NRH=4096)=%g must be < p(NRH=64)=%g", hi.Probability(), lo.Probability())
	}
	if lo.Probability() > 1 {
		t.Error("probability above 1")
	}
}

func TestPARATriggersStatistically(t *testing.T) {
	iss := &fakeIssuer{}
	obs := newFakeObserver()
	m := NewPARA(testParams(64), iss, obs) // p ≈ 0.43
	for i := 0; i < 10000; i++ {
		m.OnActivate(0, 100, 1, int64(i))
	}
	got := float64(m.Actions()) / 10000
	if got < 0.35 || got > 0.52 {
		t.Errorf("PARA trigger rate = %g, want ≈ %g", got, m.Probability())
	}
	if obs.proportional != int(m.Actions()) {
		t.Error("observer signals != actions")
	}
	if len(iss.vrrs) != int(m.Actions())*4 {
		t.Errorf("VRRs = %d, want 4 per action", len(iss.vrrs))
	}
}

func TestGrapheneRefreshesAtThreshold(t *testing.T) {
	iss := &fakeIssuer{}
	obs := newFakeObserver()
	p := testParams(1024)
	m := NewGraphene(p, iss, obs)
	if m.Threshold() != 256 {
		t.Fatalf("threshold = %d, want NRH/4 = 256", m.Threshold())
	}
	for i := 0; i < m.Threshold()-1; i++ {
		m.OnActivate(3, 500, 0, int64(i))
	}
	if m.Actions() != 0 {
		t.Fatal("premature refresh")
	}
	m.OnActivate(3, 500, 0, 1000)
	if m.Actions() != 1 {
		t.Fatal("no refresh at threshold")
	}
	if len(iss.vrrs) != 4 {
		t.Fatalf("VRRs = %v, want the 4 neighbours", iss.vrrs)
	}
	for _, v := range iss.vrrs {
		if v[0] != 3 {
			t.Errorf("VRR on bank %d, want 3", v[0])
		}
		if d := v[1] - 500; d < -2 || d > 2 || d == 0 {
			t.Errorf("VRR row %d not a neighbour of 500", v[1])
		}
	}
	// Counter reset: another threshold-1 activations must not retrigger.
	for i := 0; i < m.Threshold()-1; i++ {
		m.OnActivate(3, 500, 0, 2000+int64(i))
	}
	if m.Actions() != 1 {
		t.Error("counter was not reset after refresh")
	}
}

func TestGrapheneWindowReset(t *testing.T) {
	iss := &fakeIssuer{}
	p := testParams(1024)
	m := NewGraphene(p, iss, nil)
	for i := 0; i < m.Threshold()-1; i++ {
		m.OnActivate(0, 7, 0, 0)
	}
	// Cross the reset boundary: count restarts.
	m.OnActivate(0, 7, 0, p.REFW+1)
	if m.Actions() != 0 {
		t.Error("activation after window reset must not trigger")
	}
}

func TestGrapheneTableSizedToWindow(t *testing.T) {
	p := testParams(64)
	m := NewGraphene(p, &fakeIssuer{}, nil)
	budget := int(p.REFW / p.RC)
	want := budget/m.Threshold() + 1
	if m.TableEntries() != want {
		t.Errorf("table entries = %d, want %d", m.TableEntries(), want)
	}
}

func TestTWiCeRefreshAndPrune(t *testing.T) {
	iss := &fakeIssuer{}
	p := testParams(1024)
	m := NewTWiCe(p, iss, nil)
	for i := 0; i < m.Threshold(); i++ {
		m.OnActivate(0, 42, 0, int64(i))
	}
	if m.Actions() != 1 {
		t.Fatalf("actions = %d, want 1 at threshold", m.Actions())
	}
	// A lukewarm row gets pruned: touch it once, then let a prune pass run
	// far in the future via another row's activation.
	m.OnActivate(1, 9, 0, 100)
	if m.TableSize() == 0 {
		t.Fatal("entry not inserted")
	}
	m.OnActivate(2, 10, 0, p.REFW*2)
	if m.TableSize() > 1 { // only the fresh row 10 entry may remain
		t.Errorf("stale entries not pruned: size=%d", m.TableSize())
	}
}

func TestHydraEscalationAndRefresh(t *testing.T) {
	iss := &fakeIssuer{}
	obs := newFakeObserver()
	p := testParams(1024)
	m := NewHydra(p, iss, obs)

	// Below group threshold: silent.
	for i := 0; i < p.NRH/2-1; i++ {
		m.OnActivate(0, 5, 0, int64(i))
	}
	if m.Actions() != 0 {
		t.Fatalf("hydra acted before group escalation: %d", m.Actions())
	}
	// Crossing the group threshold escalates; per-row counting begins.
	// The first per-row touch misses the RCC (one aux access).
	m.OnActivate(0, 5, 0, 1000)
	if m.RCCMisses() != 1 {
		t.Errorf("RCC misses = %d, want 1", m.RCCMisses())
	}
	if len(iss.auxes) != 1 {
		t.Errorf("aux accesses = %d, want 1", len(iss.auxes))
	}
	// Hammer on: per-row count reaches the row threshold -> refresh.
	for i := 0; i < p.NRH/2; i++ {
		m.OnActivate(0, 5, 0, 2000+int64(i))
	}
	if m.Refreshes() != 1 {
		t.Errorf("refreshes = %d, want 1", m.Refreshes())
	}
	if len(iss.vrrs) != 4 {
		t.Errorf("VRRs = %d, want 4", len(iss.vrrs))
	}
	if obs.proportional != int(m.Actions()) {
		t.Error("observer not signalled for every hydra action")
	}
}

func TestAQUAMigratesAtThreshold(t *testing.T) {
	iss := &fakeIssuer{}
	obs := newFakeObserver()
	p := testParams(512)
	m := NewAQUA(p, iss, obs)
	for i := 0; i < m.Threshold(); i++ {
		m.OnActivate(2, 77, 1, int64(i))
	}
	if len(iss.migrations) != 1 {
		t.Fatalf("migrations = %d, want 1", len(iss.migrations))
	}
	mig := iss.migrations[0]
	if mig[0] != 2 || mig[1] != 77 {
		t.Errorf("migration = %v, want bank 2 row 77", mig)
	}
	if mig[2] < p.RowsPerBank-p.RowsPerBank/aquaQuarantineFrac {
		t.Errorf("destination %d not in quarantine region", mig[2])
	}
	if obs.proportional != 1 {
		t.Error("observer not signalled")
	}
}

func TestAQUAQuarantineRowsNotTracked(t *testing.T) {
	iss := &fakeIssuer{}
	p := testParams(64)
	m := NewAQUA(p, iss, nil)
	qRow := p.RowsPerBank - 1
	for i := 0; i < p.NRH*4; i++ {
		m.OnActivate(0, qRow, 0, int64(i))
	}
	if len(iss.migrations) != 0 {
		t.Error("quarantine rows must not be re-migrated")
	}
}

func TestREGAPerThreadAttribution(t *testing.T) {
	obs := newFakeObserver()
	p := testParams(64)
	m := NewREGA(p, obs)
	if m.RegaT() != 16 {
		t.Fatalf("REGA_T = %d, want 16", m.RegaT())
	}
	for i := 0; i < 16*3; i++ {
		m.OnActivate(0, 1, 2, int64(i))
	}
	if obs.perThread[2] != 3 {
		t.Errorf("thread 2 score events = %d, want 3", obs.perThread[2])
	}
	if obs.proportional != 0 {
		t.Error("REGA must not use proportional attribution")
	}
	// Writeback traffic (thread -1) is ignored.
	m.OnActivate(0, 1, -1, 0)
	if m.Actions() != 3 {
		t.Error("thread -1 affected REGA actions")
	}
}

func TestREGATimingPenaltyGrowsAsNRHShrinks(t *testing.T) {
	ras512, _ := REGATimingPenalty(512)
	if ras512 != 0 {
		t.Errorf("penalty at NRH=512 = %d, want 0", ras512)
	}
	ras64, rp64 := REGATimingPenalty(64)
	ras128, _ := REGATimingPenalty(128)
	if ras64 <= ras128 {
		t.Errorf("penalty must grow: NRH=64 %d <= NRH=128 %d", ras64, ras128)
	}
	if rp64 <= 0 {
		t.Error("tRP penalty missing at NRH=64")
	}
}

func TestRFMIssuesEveryRAAIMT(t *testing.T) {
	iss := &fakeIssuer{}
	obs := newFakeObserver()
	p := testParams(256)
	m := NewRFM(p, iss, obs)
	if m.RAAIMT() != 64 {
		t.Fatalf("RAAIMT = %d, want 64", m.RAAIMT())
	}
	for i := 0; i < 64*5; i++ {
		m.OnActivate(7, i%100, 0, int64(i))
	}
	if len(iss.rfms) != 5 {
		t.Errorf("RFMs = %d, want 5", len(iss.rfms))
	}
	for _, b := range iss.rfms {
		if b != 7 {
			t.Errorf("RFM on bank %d, want 7", b)
		}
	}
	if obs.proportional != 5 {
		t.Errorf("observer signals = %d, want 5", obs.proportional)
	}
}

func TestRFMRAAIMTClamped(t *testing.T) {
	if m := NewRFM(testParams(8), &fakeIssuer{}, nil); m.RAAIMT() != 8 {
		t.Errorf("RAAIMT at NRH=8 = %d, want clamp to 8", m.RAAIMT())
	}
	if m := NewRFM(testParams(4096), &fakeIssuer{}, nil); m.RAAIMT() != 80 {
		t.Errorf("RAAIMT at NRH=4096 = %d, want clamp to 80", m.RAAIMT())
	}
}

func TestPRACAlertsAtThreshold(t *testing.T) {
	iss := &fakeIssuer{}
	obs := newFakeObserver()
	p := testParams(128)
	m := NewPRAC(p, iss, obs)
	if m.AlertThreshold() != 64 {
		t.Fatalf("alert threshold = %d, want 64", m.AlertThreshold())
	}
	for i := 0; i < 64; i++ {
		m.OnActivate(1, 33, 0, int64(i))
	}
	if len(iss.backoffs) != 1 {
		t.Fatalf("backoffs = %d, want 1", len(iss.backoffs))
	}
	if iss.backoffs[0] != [2]int{1, pracBackoffRFMs} {
		t.Errorf("backoff = %v, want bank 1 with %d RFMs", iss.backoffs[0], pracBackoffRFMs)
	}
	if m.RowCount(1, 33) != 0 {
		t.Error("aggressor counter not reset after alert")
	}
	if obs.proportional != 1 {
		t.Error("observer not signalled")
	}
}

func TestPRACCountsPerRow(t *testing.T) {
	m := NewPRAC(testParams(1024), &fakeIssuer{}, nil)
	m.OnActivate(0, 1, 0, 0)
	m.OnActivate(0, 1, 0, 1)
	m.OnActivate(0, 2, 0, 2)
	if m.RowCount(0, 1) != 2 || m.RowCount(0, 2) != 1 {
		t.Errorf("row counts = %d,%d, want 2,1", m.RowCount(0, 1), m.RowCount(0, 2))
	}
	if m.RowCount(5, 0) != 0 {
		t.Error("untouched bank must report zero")
	}
	// Counters live in pages: rows on both sides of a page boundary, a
	// bank's last row and the next bank's first row stay apart, in a bank
	// whose row count is not a whole number of pages too.
	p := testParams(1024)
	p.RowsPerBank = 3*pracPageRows - 5
	m = NewPRAC(p, &fakeIssuer{}, nil)
	rows := [][2]int{{2, pracPageRows - 1}, {2, pracPageRows}, {2, p.RowsPerBank - 1}, {3, 0}}
	for i, r := range rows {
		for n := 0; n <= i; n++ {
			m.OnActivate(r[0], r[1], 0, 0)
		}
	}
	for i, r := range rows {
		if got := m.RowCount(r[0], r[1]); got != i+1 {
			t.Errorf("bank %d row %d: count %d, want %d", r[0], r[1], got, i+1)
		}
	}
}

func TestBlockHammerBlacklistsAndDelays(t *testing.T) {
	p := testParams(256)
	m := NewBlockHammer(p)
	bank, row := 0, 42

	// Below the blacklist threshold: always allowed.
	for i := 0; i < int(m.Threshold())-1; i++ {
		if at := m.ActAllowedAt(bank, row, 0, int64(i)); at > int64(i) {
			t.Fatalf("act %d held until %d below threshold", i, at)
		}
		m.OnActivate(bank, row, 0, int64(i))
	}
	// Crossing the threshold: the next activation waits exactly tDelay.
	m.OnActivate(bank, row, 0, 1000)
	if at := m.ActAllowedAt(bank, row, 0, 1001); at != 1000+m.Delay() {
		t.Errorf("blacklisted row allowed at %d, want last ACT + tDelay = %d", at, 1000+m.Delay())
	}
	// A different row in the same bank is unaffected.
	if at := m.ActAllowedAt(bank, 9999, 0, 1001); at > 1001 {
		t.Errorf("non-blacklisted row held until %d", at)
	}
}

func TestBlockHammerEpochSwapClearsHistory(t *testing.T) {
	p := testParams(256)
	m := NewBlockHammer(p)
	swap := p.REFW / 2 // the first half-epoch swap
	last := swap - m.Delay()/2
	for i := 0; i < int(m.Threshold())+10; i++ {
		m.OnActivate(0, 5, 0, last-int64(m.Threshold())-10+int64(i)+1)
	}
	// The delay would run past the swap, which forgets the activation:
	// the answer is capped there, with or without the clock having
	// reached it.
	if at := m.ActAllowedAt(0, 5, 0, last+1); at != swap {
		t.Fatalf("delay crossing the swap ends at %d, want the swap at %d", at, swap)
	}
	if at := m.ActAllowedAt(0, 5, 0, swap); at > swap {
		t.Errorf("row held until %d at the swap", at)
	}
	// Right after the swap is applied, the row is allowed at once.
	m.OnActivate(0, 77, 1, swap)
	if at := m.ActAllowedAt(0, 5, 0, swap+1); at > swap+1 {
		t.Errorf("row held until %d after the swap", at)
	}
	// After a full lifetime (two half-epochs) both filters have been
	// cleared; the row is no longer blacklisted.
	m.OnActivate(0, 5, 0, p.REFW+p.REFW/2+1)
	if at := m.ActAllowedAt(0, 5, 0, p.REFW+p.REFW/2+2); at > p.REFW+p.REFW/2+2 {
		t.Error("blacklist survived a full filter lifetime")
	}
}

func TestBlockHammerDelayScalesWithNRH(t *testing.T) {
	lo := NewBlockHammer(testParams(64))
	hi := NewBlockHammer(testParams(4096))
	if lo.Delay() <= hi.Delay() {
		t.Errorf("delay at NRH=64 (%d) must exceed delay at NRH=4096 (%d)",
			lo.Delay(), hi.Delay())
	}
}

func TestBlockHammerAttackThrottlerRHLI(t *testing.T) {
	p := testParams(256)
	m := NewBlockHammer(p)
	m.SetMaxQuota(64)

	// Thread 0 hammers one row past the blacklist; thread 1 touches cold
	// rows only.
	for i := 0; i < int(m.Threshold())+200; i++ {
		m.OnActivate(0, 7, 0, int64(i))
		m.OnActivate(1, 1000+i, 1, int64(i))
	}
	if rhli := m.RHLI(0); rhli < 0.4 {
		t.Errorf("attacker RHLI = %g, want high", rhli)
	}
	if rhli := m.RHLI(1); rhli > 0.1 {
		t.Errorf("benign RHLI = %g, want ~0", rhli)
	}
	if qa, qb := m.MSHRQuota(0), m.MSHRQuota(1); qa >= qb {
		t.Errorf("attacker quota %d not below benign quota %d", qa, qb)
	}
	if m.MSHRQuota(1) != 64 {
		t.Errorf("benign quota = %d, want full 64", m.MSHRQuota(1))
	}
	// Quota never reaches zero (BlockHammer prevents bitflips with the
	// row delay, not starvation).
	if m.MSHRQuota(0) < 1 {
		t.Error("attacker quota below 1")
	}
	// Out-of-range threads are safe.
	if m.RHLI(-1) != 0 || m.RHLI(99) != 0 {
		t.Error("out-of-range RHLI not zero")
	}
}
