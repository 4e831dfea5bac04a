package exp

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the figure goldens under testdata/quick and testdata/quick-4ch")

// wallClock names the only rendered cells that are not simulation
// results: the sampling validation's "speedup" rows hold the wall-clock
// each side took on the host that simulated it, and their ratio. They
// are masked before comparing and before -update writes a golden.
var wallClock = struct {
	experiment, metric string
	columns            []string
}{"sampling", "speedup", []string{"exact", "sampled", "rel-err"}}

const maskedCell = "(wall-clock)"

func maskWallClock(name string, t *Table) {
	if name != wallClock.experiment {
		return
	}
	metric := slices.Index(t.Header, "metric")
	for _, row := range t.Rows {
		if metric < 0 || row[metric] != wallClock.metric {
			continue
		}
		for _, col := range wallClock.columns {
			if j := slices.Index(t.Header, col); j >= 0 {
				row[j] = maskedCell
			}
		}
	}
}

// TestQuickFiguresMatchGolden renders every experiment at QuickOptions,
// and figs 8, 13 and the scenario grid at four channels, through one
// store, and compares each table's JSON with the committed golden. The
// 4-channel slice is the pin that sees the order a multi-channel cycle
// delivers its channels' events in. A change that moves a result
// re-records the goldens with
//
//	go test ./internal/exp -run TestQuickFiguresMatchGolden -update
//
// and lists the moved cells this test prints.
func TestQuickFiguresMatchGolden(t *testing.T) {
	t.Parallel()
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	quick := QuickOptions()
	quad := quick
	quad.Base.Channels = 4
	r := NewRunner(quick)
	for _, slice := range []struct {
		dir   string
		r     *Runner
		names []string
	}{
		{"quick", r, names},
		{"quick-4ch", r.WithOptions(quad), []string{"8", "13", "scenarios"}},
	} {
		if err := slice.r.Prefetch(slice.r.PointsFor(slice.names)); err != nil {
			t.Fatal(err)
		}
		for _, name := range slice.names {
			e, _ := ExperimentByName(name)
			tbl, err := e.Run(slice.r)
			if err != nil {
				t.Fatalf("%s/%s: %v", slice.dir, name, err)
			}
			maskWallClock(name, &tbl)
			got := tbl.JSON()
			path := filepath.Join("testdata", slice.dir, "experiment_"+name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to record it)", err)
			}
			if got != string(want) {
				t.Errorf("%s experiment %s moved:\n%s", slice.dir, name, movedCells(t, want, []byte(got)))
			}
		}
	}
}

// movedCells lists what differs between two rendered tables, one line
// per changed cell: row (labelled by its leading cells), column header,
// old → new.
func movedCells(t *testing.T, want, got []byte) string {
	t.Helper()
	type table struct {
		Title  string     `json:"title"`
		Note   string     `json:"note"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	var w, g table
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatalf("golden: %v", err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatalf("rendered: %v", err)
	}
	var b strings.Builder
	if w.Title != g.Title || w.Note != g.Note || !slices.Equal(w.Header, g.Header) {
		fmt.Fprintf(&b, "  title/note/header: %q %q %q → %q %q %q\n", w.Title, w.Note, w.Header, g.Title, g.Note, g.Header)
	}
	if len(w.Rows) != len(g.Rows) {
		fmt.Fprintf(&b, "  rows: %d → %d\n", len(w.Rows), len(g.Rows))
	}
	cell := func(rows [][]string, i, j int) string {
		if i < len(rows) && j < len(rows[i]) {
			return rows[i][j]
		}
		return "(none)"
	}
	for i := range max(len(w.Rows), len(g.Rows)) {
		label := "(none)"
		if i < len(g.Rows) {
			label = rowLabel(g.Rows, i)
		} else if i < len(w.Rows) {
			label = rowLabel(w.Rows, i)
		}
		for j := range max(len(w.Header), len(g.Header)) {
			if old, now := cell(w.Rows, i, j), cell(g.Rows, i, j); old != now {
				col := fmt.Sprint(j)
				if j < len(g.Header) {
					col = g.Header[j]
				}
				fmt.Fprintf(&b, "  row %d (%s), column %s: %s → %s\n", i, label, col, old, now)
			}
		}
	}
	return b.String()
}

// rowLabel names row i by its shortest run of leading cells that no
// other row starts with.
func rowLabel(rows [][]string, i int) string {
	row := rows[i]
	for n := 1; n < len(row); n++ {
		unique := true
		for k, other := range rows {
			if k != i && len(other) >= n && slices.Equal(other[:n], row[:n]) {
				unique = false
				break
			}
		}
		if unique {
			return strings.Join(row[:n], " / ")
		}
	}
	return strings.Join(row, " / ")
}
