// bhsweep regenerates the paper's tables and figures (see DESIGN.md's
// per-experiment index) and prints them as ASCII tables, CSV or JSON.
//
// With -cache-dir, every simulated configuration point persists to a
// content-addressed store (see internal/results): repeated invocations
// perform zero simulations, and an interrupted sweep resumes where it
// died. -jobs bounds how many points simulate concurrently; -resume=false
// ignores (and supersedes) previously cached points. Workers (or a
// bhserve instance) sharing one cache directory coordinate through claim
// files, so a fleet splits a sweep without duplicating points.
//
// With -worker, bhsweep instead joins a distributed sweep fleet: it
// leases configuration points from a `bhserve -fleet` coordinator over
// HTTP, simulates them locally (reusing its own warm -cache-dir), and
// submits the results — the sweep's shape comes entirely from the
// coordinator, so no other sweep flags apply. See internal/fleet.
//
// Usage:
//
//	bhsweep                            # everything, scaled-down defaults
//	bhsweep -figs 2,6,8                # a subset
//	bhsweep -csv -out results/         # CSV files, one per experiment
//	bhsweep -mixes 3 -insts 1e6        # larger sweep
//	bhsweep -cache-dir ~/.bhcache      # persistent, resumable sweep
//	bhsweep -cache-dir c -jobs 4 -json # bounded pool, JSON export
//	bhsweep -cache-dir c -paper        # paper-scale preset (cluster days)
//	bhsweep -worker http://host:8077   # join a sweep fleet as a worker
//	bhsweep -sample -figs 8,9          # interval sampling: ~5-10x faster,
//	                                   # metrics carry 95% confidence bands
//	bhsweep -figs sampling             # sampled-vs-exact accuracy report
//
// With -sample every simulated point runs SMARTS interval sampling and
// caches under keys distinct from exact runs, so sampled and exact
// populations never mix in a figure. Fleet workers inherit the
// coordinator's sampling configuration through the hello handshake —
// -sample is a coordinator-side (bhserve) decision, never a worker flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/fleet"
	"breakhammer/internal/prof"
	"breakhammer/internal/results"
	"breakhammer/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bhsweep: ")

	var (
		figs       = flag.String("figs", "all", "comma-separated experiment list: table1,table2,table3,2,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,sec5,sec6,scenarios,sampling or 'all'")
		csvOut     = flag.Bool("csv", false, "emit CSV instead of ASCII")
		jsonOut    = flag.Bool("json", false, "emit JSON instead of ASCII")
		outDir     = flag.String("out", "", "write one file per experiment into this directory")
		quick      = flag.Bool("quick", false, "minimal smoke-test sweep")
		paper      = flag.Bool("paper", false, "paper-scale sweep: full Table 1 system, 15 mixes/group, seven N_RH values (cluster days; pair with -cache-dir)")
		cacheDir   = flag.String("cache-dir", "", "persist simulation results here; repeated sweeps recompute nothing")
		resume     = flag.Bool("resume", true, "with -cache-dir: serve previously completed points from the cache (false recomputes and supersedes them)")
		jobs       = flag.Int("jobs", 0, "configuration points simulated concurrently (0 = auto: ~GOMAXPROCS/4, since each point also parallelizes across its mixes)")
		progress   = flag.Bool("progress", true, "stream per-point progress (with ETA) to stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")

		worker     = flag.String("worker", "", "join the sweep fleet coordinated by the `bhserve -fleet` instance at this URL; only -cache-dir, -worker-name and -progress combine with it")
		workerName = flag.String("worker-name", "", "worker display name reported to the coordinator (default host-pid)")
	)
	var spec exp.OptionSpec
	spec.Bind(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()
	if *csvOut && *jsonOut {
		log.Fatal("-csv and -json are mutually exclusive")
	}
	if *quick && *paper {
		log.Fatal("-quick and -paper are mutually exclusive")
	}
	if *worker != "" {
		// The coordinator's options define the sweep wholesale: any
		// sweep-shaping flag alongside -worker would silently not apply,
		// so reject it loudly instead.
		var bad []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "worker", "worker-name", "cache-dir", "progress", "cpuprofile", "memprofile":
			default:
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			log.Fatalf("%s cannot combine with -worker: the coordinator's options define the sweep", strings.Join(bad, ", "))
		}
		runFleetWorker(*worker, *workerName, *cacheDir, *progress)
		return
	}

	switch {
	case *quick:
		spec.Preset = "quick"
	case *paper:
		spec.Preset = "paper"
	}
	opts, err := spec.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	// Report each trace's scale up front (from the sidecar manifests, no
	// re-scan when warm) and fail on unreadable files before simulating.
	traceLines, err := trace.ReportManifests(opts.Traces)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range traceLines {
		log.Print(line)
	}

	store, err := results.Open(*cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	if !*resume {
		store.Reset()
	}
	runner := exp.NewRunnerWithStore(opts, store)
	runner.SetJobs(*jobs)
	var reusedPoints int
	runner.SetProgress(func(e exp.Event) {
		if e.Type != exp.PointFinished {
			return
		}
		if e.Cached {
			reusedPoints++
		}
		if *progress {
			suffix := ""
			if e.Cached {
				suffix = " (cached)"
			} else {
				suffix = fmt.Sprintf(" (%.1fs)", e.Elapsed().Seconds())
			}
			if e.Sampled {
				suffix += " (sampled)"
			}
			if eta := e.ETA(); eta > 0 {
				suffix += fmt.Sprintf(" [eta %s]", eta.Round(time.Second))
			}
			log.Printf("point %d/%d: %s%s", e.Done, e.Total, e.Label, suffix)
		}
	})

	all := exp.Experiments()
	picked, err := exp.ParseExperimentList(*figs)
	if err != nil {
		log.Fatalf("-figs: %v", err)
	}
	selected := map[string]bool{}
	for _, name := range picked {
		selected[name] = true
	}

	// Fail on an unwritable output directory before simulating anything.
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	// Enumerate every point the selected experiments will read —
	// deduplicated across figures — and bring them into the store first,
	// spanning points with the worker pool. Figure rendering below then
	// runs without simulating.
	var names []string
	for _, e := range all {
		if selected[e.Name] {
			names = append(names, e.Name)
		}
	}
	if err := runner.Prefetch(runner.PointsFor(names)); err != nil {
		// A failed sweep still persisted every good point; report each
		// failure and exit non-zero so scripted sweeps notice.
		var se *exp.SweepError
		if errors.As(err, &se) {
			for _, f := range se.Failures {
				log.Printf("point failed: %v", f)
			}
			log.Fatalf("sweep incomplete: %d of %d point(s) failed (the rest are cached; rerun retries only the failures)",
				len(se.Failures), se.Total)
		}
		log.Fatal(err)
	}

	for _, e := range all {
		if !selected[e.Name] {
			continue
		}
		tbl, err := e.Run(runner)
		if err != nil {
			log.Fatalf("experiment %s: %v", e.Name, err)
		}
		var text, ext string
		switch {
		case *csvOut:
			text, ext = tbl.CSV(), ".csv"
		case *jsonOut:
			text, ext = tbl.JSON(), ".json"
		default:
			text, ext = tbl.String(), ".txt"
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, "experiment_"+e.Name+ext)
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Println("wrote", path)
		} else {
			fmt.Println(text)
		}
	}

	if *cacheDir != "" {
		st := store.Stats()
		log.Printf("cache %s: %d point(s) simulated this run, %d reused from the cache, %d record(s) written",
			*cacheDir, runner.Executed(), reusedPoints, st.Written)
	}
}

// runFleetWorker joins the fleet at url and loops lease -> simulate ->
// submit until the coordinator reports the sweep done or the process is
// interrupted. A first SIGINT/SIGTERM releases the current lease and
// exits cleanly; a second kills the process.
func runFleetWorker(url, name, cacheDir string, progress bool) {
	store, err := results.Open(cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	if cacheDir == "" {
		log.Print("no -cache-dir: this worker's local cache lives in memory only and dies with it")
	}
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Restore the default handler right away: shutdown waits for the
		// in-flight point to drain and its lease to release, so a second
		// Ctrl-C must kill the process instead of being swallowed.
		stop()
	}()
	logf := func(string, ...any) {}
	if progress {
		logf = log.Printf
	}
	sum, err := fleet.RunWorker(ctx, fleet.WorkerOptions{
		URL:   url,
		Name:  name,
		Store: store,
		Logf:  logf,
	})
	log.Printf("fleet %s: %d point(s) simulated this run, %d reused from the local cache, %d submitted, %d lease(s) lost, %d failed",
		url, sum.Simulated, sum.Cached, sum.Completed, sum.Stolen, sum.Failed)
	switch {
	case errors.Is(err, context.Canceled):
		log.Fatal("interrupted before the fleet drained (the lease was released; rerun to continue)")
	case err != nil:
		log.Fatal(err)
	case sum.Failed > 0:
		log.Fatalf("%d point(s) failed on this worker", sum.Failed)
	}
}
