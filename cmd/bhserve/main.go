// bhserve runs the BreakHammer experiment service: an HTTP server that
// renders any paper figure from the content-addressed results store on
// demand, computes missing figures in deduplicated background jobs, and
// streams per-point progress over Server-Sent Events (see
// internal/serve). Figures are served as exp.Table.JSON(), byte-
// identical to `bhsweep -json` for the same configuration, so the
// server and the CLI interoperate on one cache directory and one wire
// format.
//
// With -fleet the server additionally coordinates a distributed sweep
// fleet: it enumerates the listed experiments' points and leases them
// to remote `bhsweep -worker` processes over /api/fleet (see
// internal/fleet), collecting validated results into the same store the
// figures render from.
//
// Usage:
//
//	bhserve -cache-dir ~/.bhcache                 # serve on :8077
//	bhserve -cache-dir c -preset quick -jobs 4    # smoke-scale points
//	bhserve -cache-dir c -preset paper            # paper-scale service
//	bhserve -cache-dir c -fleet all               # coordinate a sweep fleet
//	bhsweep -worker http://host:8077              # join it from any box
//	curl localhost:8077/api/figures               # catalogue + coverage
//	curl localhost:8077/api/figures/fig8          # figure or 202 ticket
//	curl -N localhost:8077/api/jobs/job-1/events  # live progress (SSE)
//	curl localhost:8077/api/fleet                 # fleet status snapshot
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/fleet"
	"breakhammer/internal/results"
	"breakhammer/internal/serve"
	"breakhammer/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bhserve: ")

	var (
		addr       = flag.String("addr", ":8077", "listen address")
		cacheDir   = flag.String("cache-dir", "", "results store directory shared with bhsweep/bhsim (empty: memory-only, nothing survives a restart)")
		jobs       = flag.Int("jobs", 0, "configuration points simulated concurrently per figure job (0 = auto)")
		figureJobs = flag.Int("figure-jobs", 2, "figure jobs computed concurrently")

		fleetFigs = flag.String("fleet", "", "coordinate a distributed sweep fleet for these experiments (comma-separated names or 'all'); `bhsweep -worker <url>` processes join and drain the points")
		fleetTTL  = flag.Duration("fleet-ttl", 0, "fleet lease TTL: a worker silent this long loses its point to another worker (0 = 2m)")

		rate  = flag.Float64("rate", 0, "per-client rate limit in requests/second (token bucket keyed by API token or remote address; 0 = unlimited)")
		burst = flag.Int("burst", 10, "with -rate: per-client burst capacity (bucket size)")
	)
	var spec exp.OptionSpec
	flag.StringVar(&spec.Preset, "preset", "default", "experiment scale preset: default, quick or paper")
	spec.Bind(flag.CommandLine)
	flag.Parse()

	opts, err := spec.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	// Validate trace files at startup — a figure job discovering a
	// missing trace hours in would be a worse failure mode — and log
	// their scale from the sidecar manifests.
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
	if *cacheDir == "" {
		log.Print("no -cache-dir: results live in memory only and die with the server")
	} else {
		st := store.Stats()
		log.Printf("store %s: %d record(s) loaded, %d skipped", *cacheDir, st.Loaded, st.Skipped)
	}

	runner := exp.NewRunnerWithStore(opts, store)
	runner.SetJobs(*jobs)
	srv := serve.New(runner, *figureJobs)
	srv.SetRateLimit(*rate, *burst)
	srv.SetLogf(log.Printf)
	if *rate > 0 {
		log.Printf("rate limit: %.3g req/s per client, burst %d", *rate, *burst)
	}
	// Reattach durable job tickets left open by a previous process: each
	// resumes as a background job that simulates only the points the
	// store does not already hold.
	reattached, err := srv.ReattachTickets()
	if err != nil {
		log.Fatal(err)
	}
	if reattached > 0 {
		log.Printf("reattached %d job ticket(s) from a previous run", reattached)
	}

	if *fleetFigs != "" {
		names, err := exp.ParseExperimentList(*fleetFigs)
		if err != nil {
			log.Fatalf("-fleet: %v", err)
		}
		coord, err := fleet.NewCoordinator(runner, names, *fleetTTL)
		if err != nil {
			log.Fatal(err)
		}
		srv.EnableFleet(coord)
		st := coord.Status()
		log.Printf("fleet: coordinating %d point(s) for %s (%d already cached); join with `bhsweep -worker http://<this-host>%s`",
			st.Total, strings.Join(names, ","), st.Cached, *addr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		// Restore the default signal handler right away: shutdown waits
		// for in-flight simulation points, so a second Ctrl-C must kill
		// the process instead of being swallowed.
		stop()
		log.Print("shutting down: cancelling background jobs (Ctrl-C again to force quit)")
		// Cancel jobs before draining connections: open SSE streams wait
		// on their job's completion, so cancelling first finishes the
		// jobs, terminates the streams, and lets Shutdown return without
		// burning its whole timeout.
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("serving %d experiments on %s (preset %s)", len(exp.Experiments()), *addr, spec.Preset)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err) // bind/accept failure: the shutdown goroutine never ran
	}
	<-shutdownDone
	log.Print("shutdown complete")
}
