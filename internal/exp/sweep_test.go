package exp

import (
	"strings"
	"testing"

	"breakhammer/internal/results"
)

// figureByName dispatches the named experiments used by the sweep tests.
func figureByName(t *testing.T, r *Runner, name string) Table {
	t.Helper()
	var (
		tb  Table
		err error
	)
	switch name {
	case "2":
		tb, err = r.Figure2()
	case "8":
		tb, err = r.Figure8()
	case "9":
		tb, err = r.Figure9()
	case "10":
		tb, err = r.Figure10()
	case "12":
		tb, err = r.Figure12()
	default:
		t.Fatalf("unknown figure %q", name)
	}
	if err != nil {
		t.Fatalf("figure %s: %v", name, err)
	}
	return tb
}

// TestSweepSecondRunSimulatesNothing is the acceptance criterion: with a
// persistent cache directory, a repeated sweep performs zero simulations
// and reproduces byte-identical tables.
func TestSweepSecondRunSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	names := []string{"2", "8", "9", "10", "12"}
	opts := testOptions()

	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	var progressCalls int
	r1.SetProgress(func(e Event) {
		if e.Type == PointFinished {
			progressCalls++
		}
	})
	if err := r1.Prefetch(r1.PointsFor(names)); err != nil {
		t.Fatal(err)
	}
	if r1.Executed() == 0 {
		t.Fatal("cold sweep executed no simulations")
	}
	if progressCalls == 0 {
		t.Error("Prefetch streamed no progress")
	}
	first := map[string]string{}
	for _, name := range names {
		first[name] = figureByName(t, r1, name).CSV()
	}
	// Rendering after Prefetch must not simulate anything further.
	if got, want := r1.Executed(), int64(progressCalls); got != want {
		t.Errorf("figure rendering simulated %d extra points", got-want)
	}

	// Second invocation: fresh store on the same directory, zero sims.
	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWithStore(opts, store2)
	if err := r2.Prefetch(r2.PointsFor(names)); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if got := figureByName(t, r2, name).CSV(); got != first[name] {
			t.Errorf("figure %s differs when served from the cache", name)
		}
	}
	if got := r2.Executed(); got != 0 {
		t.Errorf("warm sweep executed %d simulations, want 0", got)
	}
	// Queueing keyed every point and each figure's render keyed the ones
	// it read again; only the first use of a point derives its key.
	if got, want := r2.derivations, len(r2.PointsFor(names)); got != want {
		t.Errorf("warm sweep derived %d point keys for %d points", got, want)
	}
	st := store2.Stats()
	if st.Misses != 0 {
		t.Errorf("warm sweep missed the cache %d times, want 0", st.Misses)
	}
	if st.Hits == 0 || st.Loaded == 0 {
		t.Errorf("warm sweep stats = %+v, want hits and loaded records", st)
	}
}

// TestInterruptedSweepResumes: a sweep killed partway (modelled as a
// Prefetch of a point subset) must not recompute the completed points
// when rerun.
func TestInterruptedSweepResumes(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	names := []string{"8", "9"}

	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	all := r1.PointsFor(names)
	if len(all) < 4 {
		t.Fatalf("sweep too small to interrupt: %d points", len(all))
	}
	partial := all[:len(all)/2]
	if err := r1.Prefetch(partial); err != nil {
		t.Fatal(err)
	}
	if got, want := r1.Executed(), int64(len(partial)); got != want {
		t.Fatalf("partial sweep executed %d points, want %d", got, want)
	}

	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWithStore(opts, store2)
	var cachedSeen int
	r2.SetProgress(func(e Event) {
		if e.Type == PointFinished && e.Cached {
			cachedSeen++
		}
	})
	if err := r2.Prefetch(all); err != nil {
		t.Fatal(err)
	}
	if got, want := r2.Executed(), int64(len(all)-len(partial)); got != want {
		t.Errorf("resume executed %d points, want %d (completed points recomputed)", got, want)
	}
	if cachedSeen != len(partial) {
		t.Errorf("resume reported %d cached points, want %d", cachedSeen, len(partial))
	}
}

// TestPointsForDeduplicatesSharedSweeps: Figs. 8, 9, 10, 12 and 18 read
// the same attacker sweep; enumerating them together must not multiply
// the points.
func TestPointsForDeduplicatesSharedSweeps(t *testing.T) {
	r := NewRunner(testOptions())
	solo := len(r.PointsFor([]string{"8"}))
	combined := len(r.PointsFor([]string{"8", "9", "10", "12"}))
	if combined != solo {
		t.Errorf("figures 9/10/12 added %d points beyond figure 8's %d; they share its sweep", combined-solo, solo)
	}
	// Figure 18 only adds the BlockHammer column.
	with18 := len(r.PointsFor([]string{"8", "18"}))
	if want := solo + len(testOptions().NRHs); with18 != want {
		t.Errorf("adding figure 18 gives %d points, want %d (one blockhammer point per N_RH)", with18, want)
	}
	// Enumeration is idempotent.
	if again := len(r.PointsFor([]string{"8", "9", "10", "12"})); again != combined {
		t.Errorf("PointsFor is not deterministic: %d then %d", combined, again)
	}
}

// TestDefaultTHThreatSharesKey: Fig. 19's TH_threat=32 column is the same
// simulation as Fig. 9's default-threat graphene+BH points; the two Point
// spellings must resolve to one store key so Prefetch simulates it once.
func TestDefaultTHThreatSharesKey(t *testing.T) {
	r := NewRunner(testOptions())
	implicit := Point{Mech: "graphene", NRH: 256, BH: true, Attack: true}
	explicit := implicit
	explicit.BHThreat = 32
	kImplicit, err := results.Key(r.configFor(implicit), r.mixes(true))
	if err != nil {
		t.Fatal(err)
	}
	kExplicit, err := results.Key(r.configFor(explicit), r.mixes(true))
	if err != nil {
		t.Fatal(err)
	}
	if kImplicit != kExplicit {
		t.Error("default TH_threat spelled explicitly produces a second key (point would simulate twice)")
	}
	other := implicit
	other.BHThreat = 512
	kOther, err := results.Key(r.configFor(other), r.mixes(true))
	if err != nil {
		t.Fatal(err)
	}
	if kOther == kImplicit {
		t.Error("non-default TH_threat shares the default key")
	}
}

// TestTable3ServedFromRawCache: Table 3's study points persist like any
// other, so even a -figs all sweep recomputes nothing on a warm cache. A
// second runner on the same directory must reproduce the table without
// simulating or writing anything. (The name is from when the rendered
// table itself was cached, in the store's raw namespace.)
func TestTable3ServedFromRawCache(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()

	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunnerWithStore(opts, store1)
	first, err := r1.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if n := r1.Executed(); n != 2 {
		t.Fatalf("cold Table3 simulated %d points, want 2 (the three applications, the attacker)", n)
	}

	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunnerWithStore(opts, store2)
	second, err := r2.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if second.CSV() != first.CSV() {
		t.Error("cached Table 3 differs from the computed one")
	}
	if st := store2.Stats(); st.Written != 0 || r2.Executed() != 0 {
		t.Errorf("warm Table3 simulated %d points and wrote %d records, want 0 and 0", r2.Executed(), st.Written)
	}
}

// TestPrefetchJobsBound: a single-job pool must still complete the sweep.
func TestPrefetchJobsBound(t *testing.T) {
	r := NewRunner(testOptions())
	r.SetJobs(1)
	points := r.PointsFor([]string{"2"})
	if err := r.Prefetch(points); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Executed(), int64(len(points)); got != want {
		t.Errorf("executed %d of %d points", got, want)
	}
}

func TestTableJSON(t *testing.T) {
	tb := Table{Title: "T", Note: "n", Header: []string{"a", "b"}}
	tb.AddRow("x", "1.00")
	got := tb.JSON()
	for _, want := range []string{`"title": "T"`, `"note": "n"`, `"header"`, `"x"`, `"1.00"`} {
		if !strings.Contains(got, want) {
			t.Errorf("JSON missing %s:\n%s", want, got)
		}
	}
}
