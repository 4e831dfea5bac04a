// Command bench is the repository's benchmark: seven workloads over the
// whole stack (one simulation point four ways, a sweep, the figure
// service, the worker fleet), each measured from outside through the
// layers' public functions. See README.md in this directory.
//
//	go run ./bench -seed 1                 every workload, each in a child process
//	go run ./bench -seed 1 -trace 1        the same plus the traced pass (per-layer metrics, span files)
//	go run ./bench -workload sweep -seed 7 -seconds 8 -trace 0
//	go run ./bench -seed 1 -runs 10        a set of ten runs per workload, medians and samples in the result file
//	go run ./bench -compare a.json b.json  two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what a workload gets: the seed its inputs come from, how long to
// measure, whether this is the traced pass, and where to put files.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool       // test-sized inputs: seconds, not the workload, bounds the run
	tmp      string     // scratch root, removed on exit
	out      string     // span files
	host     *hostSpeed // nil: times are reported raw
}

// outcome is what a workload hands back.
type outcome struct {
	setups    []float64 // seconds, one per set-up repetition
	work      float64   // units of work per host second
	wait      float64   // ms
	samples   int       // timed operations behind work and wait
	layer     map[string]float64
	attempted int
	failed    int
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// check counts one correctness check (or one operation) and reports a
// failure on standard error.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
}

// saveSpans writes the traced pass's spans to the output directory.
func (o *outcome) saveSpans(e *env, tr *tracer) {
	o.layer["trace.spans"] = float64(len(tr.spans))
	path, err := writeSpans(e.out, fmt.Sprintf("spans-%s-seed%d.csv", e.workload, e.seed), tr.spans)
	o.check(err == nil, "%s: writing spans: %v", e.workload, err)
	if err == nil {
		fmt.Printf("# spans: %s\n", path)
	}
}

// fail records an error that stops the workload.
func (o *outcome) fail(err error) *outcome {
	o.check(false, "%v", err)
	return o
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 8, "how long each workload measures")
		trace    = flag.Int("trace", 0, "1: the traced pass, reporting per-layer metrics and writing span files")
		runs     = flag.Int("runs", 1, "without -workload: runs per workload, with seeds seed, seed+1, ...")
		smoke    = flag.Bool("smoke", false, "test-sized inputs")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for result and span files")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	// Children inherit the pin, so every workload sees the same
	// parallelism whatever the host offers.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *trace != 0, *smoke, *out))
	default:
		os.Exit(runAll(*seed, *runs, *seconds, *trace != 0, *smoke, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// runWorkload runs one workload in this process and returns its result.
func runWorkload(w workloadDef, e *env) (result, *outcome) {
	if _, sim := simCases[w.Name]; sim {
		e.host = newHostSpeed() // see probe.go for why only these
	}
	o := w.run(e)
	index := e.host.index()
	o.layer["host.peak_rss_mb"] = peakRSSMB()
	o.layer["host.speed_index"] = index
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	if e.trace {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{Value: o.layer[m.Name], Unit: m.Unit}
		}
	} else {
		vals := map[string]float64{mSetup: median(o.setups) * index, mWork: o.work / index, mWait: o.wait * index}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		}
	}
	return res, o
}

func runOne(name string, seed int64, seconds float64, trace, smoke bool, out string) int {
	w, ok := workloadByName(name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		fatalf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	// Stores and cache directories live under one root inside the output
	// directory, removed when the workload ends.
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatalf("bench: %v", err)
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		fatalf("bench: %v", err)
	}
	e := &env{workload: name, seed: seed, seconds: seconds, trace: trace, smoke: smoke, tmp: tmp, out: out}
	res, o := runWorkload(w, e)
	os.RemoveAll(tmp)

	printMetrics(os.Stdout, name, res, o)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("bench: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics prints every metric by name with its unit.
func printMetrics(w *os.File, workload string, res result, o *outcome) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: %d checks and operations, %d failed, %d timed samples, %d set-ups, host speed index %.3f (times are multiplied by it)\n",
		workload, res.Attempted, res.Failed, o.samples, len(o.setups), o.layer["host.speed_index"])
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-14s %-36s %16.6g %s\n", workload, n, m.Value, m.Unit)
	}
}

// hostStamp records where a result file was measured.
type hostStamp struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func stampHost() hostStamp {
	h := hostStamp{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// resultFile is what the all-workloads run writes and -compare reads: one
// set of runs. Workloads holds, per workload, the median of every
// end-to-end metric over the set's runs; Samples holds the runs.
type resultFile struct {
	Host      hostStamp                       `json:"host"`
	Seed      int64                           `json:"seed"`
	Runs      int                             `json:"runs"`
	Seconds   float64                         `json:"seconds"`
	Note      string                          `json:"note"`
	Workloads map[string]result               `json:"workloads"`
	Samples   map[string]map[string][]float64 `json:"samples"`
	Traced    map[string]result               `json:"traced,omitempty"`
}

// runChild runs one workload in a child process, so it starts with a
// fresh heap and an empty sim.aloneCache, echoes what it printed and
// returns its result line.
func runChild(self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result line (%v, %v)", runErr, err)
	}
	if runErr != nil && res.Correct {
		return res, runErr
	}
	return res, nil
}

// runAll runs every workload runs times (seed, seed+1, ...), then the
// traced pass once when asked for, and writes the set to a result file.
func runAll(seed int64, runs int, seconds float64, trace, smoke bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("bench: %v", err)
	}
	rf := resultFile{
		Host: stampHost(), Seed: seed, Runs: runs, Seconds: seconds,
		Note:      "host time unless a metric is marked simulated; the model is unvalidated against hardware",
		Workloads: map[string]result{},
		Samples:   map[string]map[string][]float64{},
		Traced:    map[string]result{},
	}
	childArgs := func(w string, seed int64, traced bool) []string {
		args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", out}
		if traced {
			args = append(args, "-trace", "1")
		}
		if smoke {
			args = append(args, "-smoke")
		}
		return args
	}
	code := 0
	attempted, failed := 0, 0
	tally := func(w string, res result, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
		}
		if err != nil || !res.Correct {
			code = 1
		}
		attempted += res.Attempted
		failed += res.Failed
	}
	for _, w := range workloads {
		rf.Samples[w.Name] = map[string][]float64{}
		sum := result{Correct: true, Metrics: map[string]metricValue{}}
		for run := 0; run < runs; run++ {
			res, err := runChild(self, childArgs(w.Name, seed+int64(run), false))
			tally(w.Name, res, err)
			sum.Correct = sum.Correct && res.Correct && err == nil
			sum.Attempted += res.Attempted
			sum.Failed += res.Failed
			for name, m := range res.Metrics {
				rf.Samples[w.Name][name] = append(rf.Samples[w.Name][name], m.Value)
			}
		}
		for _, m := range endToEnd {
			sum.Metrics[m.Name] = metricValue{Value: median(rf.Samples[w.Name][m.Name]), Unit: m.Unit}
		}
		rf.Workloads[w.Name] = sum
	}
	if trace {
		for _, w := range workloads {
			res, err := runChild(self, childArgs(w.Name, seed, true))
			tally(w.Name, res, err)
			rf.Traced[w.Name] = res
		}
	}
	fmt.Printf("# failed_ratio %d/%d\n", failed, attempted)

	if err := os.MkdirAll(out, 0o755); err != nil {
		fatalf("bench: %v", err)
	}
	path := filepath.Join(out, fmt.Sprintf("result-seed%d.json", seed))
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		fatalf("bench: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("bench: %v", err)
	}
	fmt.Printf("# wrote %s\n", path)
	return code
}

// peakRSSMB is this process's peak resident set, from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
