package exp

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"breakhammer/internal/results"
	"breakhammer/internal/scenario"
)

func pointLabels(points []Point) []string {
	out := make([]string, 0, len(points))
	for _, p := range points {
		out = append(out, p.String())
	}
	return out
}

// TestPointsForMatchesHandWrittenEnumeration pins enumeration-by-rendering
// to the hand-written per-figure switch it replaced. The fixture was
// recorded from that switch: per catalogue name the point labels under
// QuickOptions and the counts under DefaultOptions and PaperOptions. Sets
// must match for every name; order too, except for the three renderers
// that read in a different order than the switch listed ("10" normalizes
// per mechanism first, "19" reads its reference column first, "scenarios"
// is strategy-major). Three entries were re-recorded since: "sampling"
// reads an exact and a sampled twin per pair now that Point carries the
// mode, where the switch could list only the exact half, and "table3" and
// "sec5" read study points where the switch listed nothing.
func TestPointsForMatchesHandWrittenEnumeration(t *testing.T) {
	raw, err := os.ReadFile("testdata/points_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Quick    map[string][]string `json:"quick"`
		Quick678 []string            `json:"quick_6_7_8"`
		Default  map[string]int      `json:"default"`
		Paper    map[string]int      `json:"paper"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	reordered := map[string]bool{"10": true, "19": true, "scenarios": true}
	quick, def, paper := NewRunner(QuickOptions()), NewRunner(DefaultOptions()), NewRunner(PaperOptions())
	for _, e := range Experiments() {
		names := []string{e.Name}
		got, exp := pointLabels(quick.PointsFor(names)), want.Quick[e.Name]
		if reordered[e.Name] {
			got, exp = append([]string(nil), got...), append([]string(nil), exp...)
			sort.Strings(got)
			sort.Strings(exp)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s under QuickOptions:\n got %q\nwant %q", e.Name, got, exp)
		}
		if n := len(def.PointsFor(names)); n != want.Default[e.Name] {
			t.Errorf("%s under DefaultOptions: %d points, want %d", e.Name, n, want.Default[e.Name])
		}
		if n := len(paper.PointsFor(names)); n != want.Paper[e.Name] {
			t.Errorf("%s under PaperOptions: %d points, want %d", e.Name, n, want.Paper[e.Name])
		}
	}
	// The benchmark's sweep grid, in the order its consumers lease it.
	if got := pointLabels(quick.PointsFor([]string{"6", "7", "8"})); !reflect.DeepEqual(got, want.Quick678) {
		t.Errorf("figures 6,7,8 together:\n got %q\nwant %q", got, want.Quick678)
	}
}

// TestEnumerationIsPure: enumerating the whole catalogue over an on-disk
// store neither reads nor writes it, simulates nothing and takes no claim.
// This is what catches a renderer that reaches the store or the simulator
// around Runner.point while PointsFor renders it.
func TestEnumerationIsPure(t *testing.T) {
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWithStore(QuickOptions(), store)
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
		r.PointsFor([]string{e.Name})
	}
	if len(r.PointsFor(names)) == 0 {
		t.Fatal("the catalogue enumerates no points")
	}
	if n := r.Executed(); n != 0 {
		t.Errorf("enumeration simulated %d point(s)", n)
	}
	if st := store.Stats(); st.Written != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("enumeration touched the store: %+v", st)
	}
	if claims := claimFiles(t, dir); len(claims) != 0 {
		t.Errorf("enumeration left claim files behind: %v", claims)
	}
	for _, name := range []string{"table3", "sec5"} {
		if cached, total, err := r.Coverage(name); err != nil || cached != 0 || total < 2 {
			t.Errorf("%s coverage after enumeration = %d/%d (%v), want 0 of several points", name, cached, total, err)
		}
	}
}

// TestEnumerationIsComplete: for every experiment of the catalogue,
// prefetching what PointsFor enumerates is all the simulating its
// renderer needs — the renderer and the enumeration cannot disagree,
// whatever a figure reads — Table 3 and Section 5 included, whose
// coverage counts their study points like any figure's.
func TestEnumerationIsComplete(t *testing.T) {
	opts := QuickOptions()
	opts.Base.TargetInsts = 40_000
	opts.Base.BHWindow = 200_000
	opts.NRHs = []int{1024, 128}
	opts.Mechanisms = []string{"graphene"}
	opts.Fig2Mechs = []string{"graphene"}
	opts.THthreats = []float64{32, 4096}
	opts.Strategies = []string{scenario.StrategyProbe}
	opts.Defenses = []scenario.Defense{{Mechanism: "graphene", BH: true}}
	r := NewRunner(opts)
	for _, e := range Experiments() {
		if e.Static {
			continue
		}
		points := r.PointsFor([]string{e.Name})
		if err := r.Prefetch(points); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		before := r.Executed()
		if _, err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if got := r.Executed() - before; got != 0 {
			t.Errorf("%s: rendering after Prefetch(PointsFor) simulated %d point(s), want 0", e.Name, got)
		}
		cached, total, err := r.Coverage(e.Name)
		if err != nil || cached != total || total == 0 {
			t.Errorf("%s: coverage after rendering = %d/%d (%v), want full", e.Name, cached, total, err)
		}
		if (e.Name == "table3" || e.Name == "sec5") && total < 2 {
			t.Errorf("%s: coverage counts %d record(s), want its several study points", e.Name, total)
		}
	}
}
