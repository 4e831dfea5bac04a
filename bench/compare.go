package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
)

// comparison is one row of -compare's table.
type comparison struct {
	metric  string
	a, b    float64 // medians
	worse   float64 // share of a by which b is worse (negative: better)
	spread  float64 // the wider of the two sets' own quartile spreads
	bound   float64
	verdict string
}

// compareMetric judges set b against set a on one metric. A set whose own
// run-to-run spread exceeds the bound cannot resolve a change of the
// bound's size: the pairing is then unresolved, whatever the medians say.
func compareMetric(m metricDef, a, b []float64) comparison {
	c := comparison{metric: m.Name, a: median(a), b: median(b), bound: m.Bound}
	if c.a != 0 {
		c.worse = (c.b - c.a) / c.a
		if m.Better == "higher" {
			c.worse = -c.worse
		}
	}
	c.spread = quartileSpread(a)
	if s := quartileSpread(b); s > c.spread {
		c.spread = s
	}
	switch {
	case c.spread > m.Bound:
		c.verdict = verdictUnresolved
	case c.worse > m.Bound:
		c.verdict = verdictBreach
	default:
		c.verdict = verdictOK
	}
	return c
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareFiles prints, for every workload and end-to-end metric, how set b
// differs from set a against the metric's bound. It returns the exit
// code: 1 when any pairing breaches its bound or a set is missing a
// workload, 0 otherwise. Unresolved pairings are reported, not failed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "a: %s (%d runs, %s, %s)\nb: %s (%d runs, %s, %s)\n",
		pathA, a.Runs, a.Host.Commit, a.Host.CPUModel, pathB, b.Runs, b.Host.Commit, b.Host.CPUModel)
	fmt.Fprintf(w, "%-14s %-12s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		sa, sb := a.Samples[wl.Name], b.Samples[wl.Name]
		if sa == nil || sb == nil {
			fmt.Fprintf(w, "%-14s missing from one set\n", wl.Name)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			c := compareMetric(m, sa[m.Name], sb[m.Name])
			fmt.Fprintf(w, "%-14s %-12s %14.6g %14.6g %+8.1f%% %8.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, c.a, c.b, 100*c.worse, 100*c.spread, 100*c.bound, c.verdict)
			if c.verdict == verdictBreach {
				code = 1
			}
		}
	}
	return code
}
