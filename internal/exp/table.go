// Package exp regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Figures are produced
// as Tables — labelled numeric grids that print as ASCII or CSV — whose
// rows/series mirror what the paper plots. Absolute values differ from
// the paper (synthetic traces, scaled-down run lengths); the reproduction
// target is the shape: who wins, by roughly what factor, and where the
// crossovers fall.
//
// Every experiment that simulates reads its results as Points through
// Runner.point — Table 3 and Section 5 included, whose points carry a
// Study — and no renderer builds a system itself: the one simulation call
// of the package is sim.RunMixes inside getOrSimulate, behind the point
// queue's claims, cancellation, progress and leases.
package exp

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is a labelled grid of results.
type Table struct {
	Title  string
	Note   string // one-line provenance/read-me for the table
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned ASCII.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, 0, len(t.Header))
	for _, h := range t.Header {
		cells = append(cells, esc(h))
	}
	b.WriteString(strings.Join(cells, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the table as an indented JSON object with title, note,
// header and rows — the machine-readable export behind bhsweep's -json
// flag.
func (t Table) JSON() string {
	b, err := json.MarshalIndent(struct {
		Title  string     `json:"title"`
		Note   string     `json:"note,omitempty"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{t.Title, t.Note, t.Header, t.Rows}, "", "  ")
	if err != nil {
		// Tables hold only strings; marshalling cannot fail in practice.
		return fmt.Sprintf("{\"error\":%q}", err.Error())
	}
	return string(b) + "\n"
}

// f2, f3 format floats for table cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
