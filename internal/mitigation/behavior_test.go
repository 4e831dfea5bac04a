package mitigation

import (
	"math/rand"
	"testing"
)

// deterministicMechs builds every deterministic (non-probabilistic)
// mechanism that issues preventive actions through the controller.
func deterministicMechs(t *testing.T, p Params, iss Issuer) []Mechanism {
	t.Helper()
	var out []Mechanism
	for _, name := range []string{"graphene", "hydra", "twice", "aqua", "rfm", "prac"} {
		m, err := New(name, p, iss, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestSparseAccessesTriggerLittle: a benign-like pattern that touches many
// rows a few times each must trigger (almost) no preventive actions from
// any row-counting mechanism — the trigger thresholds exist exactly so
// normal locality does not pay the RowHammer tax.
func TestSparseAccessesTriggerLittle(t *testing.T) {
	p := testParams(1024)
	iss := &fakeIssuer{}
	rng := rand.New(rand.NewSource(3))
	mechs := deterministicMechs(t, p, iss)
	for _, m := range mechs {
		for i := 0; i < 20000; i++ {
			bank := rng.Intn(p.Banks)
			row := rng.Intn(4096)
			m.OnActivate(bank, row, rng.Intn(4), int64(i)*100)
		}
	}
	for _, m := range mechs {
		if m.Name() == "rfm" {
			continue // RFM is rate-based, not row-based: it fires regardless
		}
		// 20000 accesses over 4096x32 rows: ~0.15 ACTs per row on average,
		// far below every threshold (>= 256 at NRH=1024).
		if m.Actions() > 20 {
			t.Errorf("%s: %d actions on a sparse pattern, want ~0", m.Name(), m.Actions())
		}
	}
}

// TestHammerTriggersEveryMechanism: a concentrated hammer on one row must
// eventually trigger every mechanism.
func TestHammerTriggersEveryMechanism(t *testing.T) {
	p := testParams(512)
	for _, name := range []string{"para", "graphene", "hydra", "twice", "aqua", "rfm", "prac"} {
		iss := &fakeIssuer{}
		m, err := New(name, p, iss, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.NRH*4; i++ {
			m.OnActivate(0, 777, 0, int64(i)*100)
		}
		if m.Actions() == 0 {
			t.Errorf("%s never triggered on a %d-activation hammer", name, p.NRH*4)
		}
	}
}

// TestTriggerRateScalesWithNRH: halving N_RH must not decrease the number
// of preventive actions for a fixed hammer stream.
func TestTriggerRateScalesWithNRH(t *testing.T) {
	for _, name := range []string{"graphene", "hydra", "twice", "aqua", "rfm", "prac"} {
		var actions [2]int64
		for i, nrh := range []int{1024, 128} {
			iss := &fakeIssuer{}
			m, err := New(name, testParams(nrh), iss, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 4096; j++ {
				m.OnActivate(0, 50+(j%4)*2, 0, int64(j)*100)
			}
			actions[i] = m.Actions()
		}
		if actions[1] < actions[0] {
			t.Errorf("%s: actions fell from %d to %d as NRH dropped 1024->128",
				name, actions[0], actions[1])
		}
	}
}

// TestObserverSignalsMatchActions: every mechanism must signal its
// Observer exactly once per preventive action (the contract BreakHammer's
// score accounting depends on).
func TestObserverSignalsMatchActions(t *testing.T) {
	for _, name := range []string{"para", "graphene", "hydra", "twice", "aqua", "rega", "rfm", "prac"} {
		iss := &fakeIssuer{}
		obs := newFakeObserver()
		m, err := New(name, testParams(256), iss, obs)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2048; j++ {
			m.OnActivate(j%4, 128+(j%8)*4, j%4, int64(j)*50)
		}
		signals := obs.proportional
		for _, n := range obs.perThread {
			signals += n
		}
		if int64(signals) != m.Actions() {
			t.Errorf("%s: %d observer signals for %d actions", name, signals, m.Actions())
		}
	}
}

// TestVictimRowsCoverBlastRadius: preventive refreshes must cover the full
// blast radius on both sides (the security-critical property).
func TestVictimRowsCoverBlastRadius(t *testing.T) {
	p := testParams(128)
	iss := &fakeIssuer{}
	m := NewGraphene(p, iss, nil)
	target := 5000
	for i := 0; i < p.NRH; i++ {
		m.OnActivate(0, target, 0, int64(i))
	}
	if len(iss.vrrs) == 0 {
		t.Fatal("no refreshes")
	}
	want := map[int]bool{target - 2: true, target - 1: true, target + 1: true, target + 2: true}
	for _, v := range iss.vrrs {
		delete(want, v[1])
	}
	if len(want) != 0 {
		t.Errorf("victims not fully covered; missing %v", want)
	}
}

// TestBlockHammerAllowsBenignRows: rows under the blacklist threshold are
// never delayed, no matter how many other rows are hot.
func TestBlockHammerAllowsBenignRows(t *testing.T) {
	p := testParams(256)
	m := NewBlockHammer(p)
	// Hammer row 0 into the blacklist.
	for i := 0; i < 400; i++ {
		m.OnActivate(0, 0, 0, int64(i))
	}
	// A cold row in the same bank must pass (modulo CBF aliasing, which
	// the 1024-counter filter makes negligible for 1 hot row).
	for r := 100; r < 120; r++ {
		if m.ActAllowedAt(0, r, 1, 1000) > 1000 {
			t.Errorf("cold row %d delayed", r)
		}
	}
}

func TestMitigationParamsValidate(t *testing.T) {
	good := testParams(64)
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.NRH = 0 },
		func(p *Params) { p.BlastRadius = 0 },
		func(p *Params) { p.Banks = 0 },
		func(p *Params) { p.RowsPerBank = -1 },
		func(p *Params) { p.Threads = 0 },
		func(p *Params) { p.REFW = 0 },
		func(p *Params) { p.REFI = 0 },
		func(p *Params) { p.RC = 0 },
	}
	for i, mut := range bad {
		p := testParams(64)
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
