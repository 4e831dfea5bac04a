package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/fleet"
	"breakhammer/internal/results"
)

const (
	fleetWorkers = 2
	// fleetTTL is the lease lifetime. A worker that finds every remaining
	// point leased waits a quarter of it before asking again, so it is
	// kept short: the grid's points take a fraction of a second.
	fleetTTL = 2 * time.Second
)

// timingTransport is the http.RoundTripper of one fleet worker in the
// traced pass: it times every protocol call from outside and derives how
// long the worker simulated between a lease and its result.
type timingTransport struct {
	tr     *tracer
	worker int64

	mu       sync.Mutex
	leaseMs  []float64
	resultMs []float64
	busy     time.Duration
	leasedAt int64 // when the last lease call returned, ns on the tracer's clock
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := t.tr.now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	t1 := t.tr.now()
	name := "fleet." + req.URL.Path[strings.LastIndex(req.URL.Path, "/")+1:]
	t.tr.record(name, t.worker, -1, t0, t1)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch name {
	case "fleet.lease":
		t.leaseMs = append(t.leaseMs, float64(t1-t0)/1e6)
		t.leasedAt = t1
	case "fleet.result":
		t.resultMs = append(t.resultMs, float64(t1-t0)/1e6)
		t.busy += time.Duration(t0 - t.leasedAt)
	}
	return resp, err
}

// fleetRound is one grid through a fresh coordinator and workers.
type fleetRound struct {
	wall       time.Duration
	points     int
	simulated  int
	steals     int
	store      *results.Store
	transports []*timingTransport
}

// runFleet mounts a coordinator over an on-disk store, starts the workers
// in this process with memory stores, and waits until every point is in
// the coordinator's store.
func runFleet(opts exp.Options, dir string, tr *tracer) (fleetRound, error) {
	var fr fleetRound
	store, err := results.Open(dir)
	if err != nil {
		return fr, err
	}
	fr.store = store
	start := time.Now()
	coord, err := fleet.NewCoordinator(exp.NewRunnerWithStore(opts, store), gridFigs, fleetTTL)
	if err != nil {
		return fr, err
	}
	mux := http.NewServeMux()
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type workerEnd struct {
		sum fleet.WorkerSummary
		err error
	}
	ends := make(chan workerEnd, fleetWorkers) // one send per worker
	var exited atomic.Int32
	for w := 0; w < fleetWorkers; w++ {
		wo := fleet.WorkerOptions{
			URL:         ts.URL,
			Name:        fmt.Sprintf("w%d", w),
			Store:       results.NewMemory(),
			BaseBackoff: 10 * time.Millisecond,
		}
		if tr != nil {
			tt := &timingTransport{tr: tr, worker: int64(w)}
			fr.transports = append(fr.transports, tt)
			wo.Client = &http.Client{Transport: tt, Timeout: 30 * time.Second}
		}
		go func() {
			sum, err := fleet.RunWorker(ctx, wo)
			ends <- workerEnd{sum, err}
			exited.Add(1)
		}()
	}
	// The sweep is over when the last result lands; a worker told to wait
	// may still be sleeping then, so it is cancelled rather than awaited.
	// Workers that have all returned without finishing the grid failed.
	for !coord.Done() && int(exited.Load()) < fleetWorkers {
		time.Sleep(200 * time.Microsecond)
	}
	fr.wall = time.Since(start)
	cancel()
	var failed error
	for w := 0; w < fleetWorkers; w++ {
		end := <-ends
		fr.simulated += end.sum.Simulated
		if end.err != nil && end.err != context.Canceled && failed == nil {
			failed = end.err
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	st := coord.Status()
	fr.points, fr.steals = st.Total, st.Steals
	if failed != nil {
		return fr, failed
	}
	if st.Done != st.Total {
		return fr, fmt.Errorf("fleet: %d of %d points done", st.Done, st.Total)
	}
	return fr, nil
}

func fleetWorkload(e *env) *outcome {
	o := newOutcome()
	if err := timeSetups(e, o, func(i int) error { return warmUpSweep(e, i) }); err != nil {
		return o.fail(err)
	}

	var tr *tracer
	if e.trace {
		tr = newTracer(4096)
	}
	var rates, walls []float64
	var last fleetRound
	var lastOpts exp.Options
	begin := time.Now()
	for round := 0; round < 2 || time.Since(begin).Seconds() < e.seconds; round++ {
		lastOpts = gridOptions(e, 200+round)
		runtime.GC() // every round starts from the same heap
		fr, err := runFleet(lastOpts, filepath.Join(e.tmp, fmt.Sprintf("fleet-%d", round)), tr)
		if err != nil {
			return o.fail(err)
		}
		rates = append(rates, float64(fr.points)/fr.wall.Seconds())
		walls = append(walls, float64(fr.wall.Nanoseconds())/1e6)
		o.check(fr.simulated >= fr.points, "fleet: workers simulated %d of %d points", fr.simulated, fr.points)
		last = fr
		if e.smoke {
			break
		}
	}
	o.work, o.wait, o.samples = median(rates), median(walls), len(rates)

	// The fleet's figures must be the local sweep's, byte for byte, and
	// rendering them from the coordinator's store must simulate nothing.
	got, err := runSweep(lastOpts, last.store, gridFigs)
	if err != nil {
		return o.fail(err)
	}
	want, err := runSweep(lastOpts, results.NewMemory(), gridFigs)
	if err != nil {
		return o.fail(err)
	}
	o.check(got.executed == 0, "fleet: rendering from the coordinator's store simulated %d points", got.executed)
	o.check(equalTables(got.tables, want.tables), "fleet: figures differ from the local sweep's")

	if e.trace {
		L := o.layer
		var lease, result []float64
		var busy time.Duration
		for _, tt := range last.transports {
			lease = append(lease, tt.leaseMs...)
			result = append(result, tt.resultMs...)
			busy += tt.busy
		}
		L["fleet.lease_rtt_ms"] = median(lease)
		L["fleet.result_rtt_ms"] = median(result)
		L["fleet.worker_busy_share"] = busy.Seconds() / (fleetWorkers * last.wall.Seconds())
		L["fleet.steals"] = float64(last.steals)
		L["fleet.duplicates"] = float64(last.simulated - last.points)
		o.saveSpans(e, tr)
	}
	return o
}
