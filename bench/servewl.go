package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
	"breakhammer/internal/serve"
)

const (
	serveRate    = 100.0 // requests per second, open loop: about a quarter of what the service sustains, so latency is service time, not queueing
	serveLimitMs = 25.0  // latency limit on the reported percentile of warm figure GETs

	// serveQuantile is the reported percentile of warm figure GETs, the
	// third quartile. The shared reference host freezes the whole process
	// for 50-350 ms a few times a minute; in an open loop one freeze
	// delays a tenth of a run's requests, so p90 and above report the
	// host, not the service, and differ severalfold between runs. p99 is
	// still measured in the traced pass.
	serveQuantile = 75.0
	coldFigure    = "13" // no attacker, one N_RH: a small grid nothing else warms
)

// warmFigs are the figures the open loop requests; set-up pre-warms them.
var warmFigs = []string{"6", "7"}

// figService is a bhserve instance behind a loopback listener.
type figService struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	tables map[string]string // figure name -> exp.Table.JSON() from the local sweep
}

func (f *figService) close() {
	f.client.CloseIdleConnections()
	f.ts.Close()
	f.srv.Close()
}

// get fetches a path and returns status and body.
func (f *figService) get(path string) (int, []byte, error) {
	resp, err := f.client.Get(f.ts.URL + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// newFigService starts a server over the store. conns sizes the client's
// connection pool.
func newFigService(opts exp.Options, store *results.Store, conns int) *figService {
	srv := serve.New(exp.NewRunnerWithStore(opts, store), 2)
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}
	return &figService{srv: srv, ts: ts, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tables: map[string]string{}}
}

// loadConns is how many connections the load generator keeps: at most
// the processors the benchmark is pinned to, and the server shares them.
func loadConns() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

// warmService is the serve workload's set-up: pre-warm a store with the
// warm figures by a local sweep, start the service on it, and send
// warm-up requests until connections, the key memo and the heap are warm.
func warmService(e *env) (*figService, error) {
	opts := gridOptions(e, 0)
	store := results.NewMemory()
	pass, err := runSweep(opts, store, warmFigs)
	if err != nil {
		return nil, err
	}
	f := newFigService(opts, store, loadConns())
	for i, name := range warmFigs {
		f.tables[name] = pass.tables[i]
	}
	warmups := 100
	if e.smoke {
		warmups = 20
	}
	for i := 0; i < warmups; i++ {
		status, _, err := f.get(requestPath(i, i%10))
		if err != nil || status != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("serve: warm-up GET %s: status %d, %v", requestPath(i, i%10), status, err)
		}
	}
	return f, nil
}

// requestPath is the open loop's traffic mix: of every ten requests,
// eight fetch a warm figure, one the catalogue, one a figure's coverage.
func requestPath(i, slot int) string {
	switch slot {
	case 8:
		return "/api/figures"
	case 9:
		return "/api/figures/" + serve.FigureID(warmFigs[0]) + "/coverage"
	default:
		return "/api/figures/" + serve.FigureID(warmFigs[i%len(warmFigs)])
	}
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	figMs    []float64 // latency of warm figure GETs, from their due times
	worstLat time.Duration
	failed   int
	samples  []olSample
}

// openLoopLoad runs the traffic mix at rate for dur. The seed shuffles
// which slot of the mix each request takes.
func openLoopLoad(f *figService, seed int64, rate float64, dur time.Duration) loadResult {
	n := int(rate * dur.Seconds())
	slots := make([]int, n)
	for i := range slots {
		slots[i] = i % 10
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	var failed atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	samples := openLoop(n, interval, loadConns(), wallClock(), func(i int) bool {
		path := requestPath(i, slots[i])
		status, body, err := f.get(path)
		ok := err == nil && status == http.StatusOK
		if ok && slots[i] < 8 {
			// The served bytes must be the figure the local sweep rendered.
			ok = string(body) == f.tables[warmFigs[i%len(warmFigs)]]
		}
		if !ok {
			failed.Add(1)
		}
		return ok
	})
	res := loadResult{failed: int(failed.Load()), samples: samples}
	for i, s := range samples {
		if s.late() > res.worstLat {
			res.worstLat = s.late()
		}
		if slots[i] < 8 && s.ok {
			res.figMs = append(res.figMs, float64(s.latency().Nanoseconds())/1e6)
		}
	}
	return res
}

// coldResult is one cold figure, from the first GET to the 200.
type coldResult struct {
	wall   time.Duration
	points int
	busy   time.Duration // summed per-point wall of the job's events
	events int           // SSE events received, the terminal one included
	body   string
}

// coldFigureRound asks a fresh service over an empty store for a figure:
// 202 and a ticket, the job's event stream until it reports done, then
// the figure itself.
func coldFigureRound(opts exp.Options) (coldResult, error) {
	var c coldResult
	f := newFigService(opts, results.NewMemory(), 2)
	defer f.close()
	path := "/api/figures/" + serve.FigureID(coldFigure)
	start := time.Now()
	status, body, err := f.get(path)
	if err != nil {
		return c, err
	}
	if status != http.StatusAccepted {
		return c, fmt.Errorf("serve: cold GET answered %d, want 202", status)
	}
	var ticket struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &ticket); err != nil {
		return c, err
	}
	resp, err := f.client.Get(f.ts.URL + ticket.EventsURL)
	if err != nil {
		return c, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var kind string
	for done := false; !done && sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			c.events++
			if kind == "done" {
				done = true
				break
			}
			var ev exp.Event
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil && ev.Type == exp.PointFinished {
				c.points++
				c.busy += ev.Elapsed()
			}
		}
	}
	resp.Body.Close()
	status, body, err = f.get(path)
	c.wall = time.Since(start)
	if err != nil {
		return c, err
	}
	if status != http.StatusOK {
		return c, fmt.Errorf("serve: figure answered %d after its job finished", status)
	}
	c.body = string(body)
	return c, nil
}

func serveWorkload(e *env) *outcome {
	o := newOutcome()
	var f *figService
	err := timeSetups(e, o, func(int) (err error) {
		if f != nil {
			f.close()
		}
		f, err = warmService(e)
		return err
	})
	if err != nil {
		return o.fail(err)
	}
	defer f.close()

	// Warm latency: open loop for a little over half the run, from a heap
	// the set-up repetitions' garbage has been cleared from.
	runtime.GC()
	dur := time.Duration(e.seconds * 0.55 * float64(time.Second))
	load := openLoopLoad(f, e.seed, serveRate, dur)
	o.attempted += len(load.samples)
	o.failed += load.failed
	if load.failed > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: serve: %d of %d open-loop requests failed or served the wrong bytes\n", load.failed, len(load.samples))
	}
	o.wait, o.samples = percentile(load.figMs, serveQuantile), len(load.figMs)
	o.check(o.wait <= serveLimitMs, "serve: warm figure p%.0f %.2f ms at %.0f req/s misses the %.0f ms limit", serveQuantile, o.wait, serveRate, serveLimitMs)

	// Cold figures: fresh service and store each round, for the rest of
	// the run. Round numbers shift the run length as in the sweep.
	var rates, colds []float64
	var last coldResult
	var lastOpts exp.Options
	begin := time.Now()
	for round := 0; round < 2 || time.Since(begin).Seconds() < e.seconds*0.45; round++ {
		lastOpts = gridOptions(e, 100+round)
		runtime.GC() // every round starts from the same heap
		c, err := coldFigureRound(lastOpts)
		if err != nil {
			return o.fail(err)
		}
		o.check(c.points > 0, "serve: the cold job streamed no finished point")
		rates = append(rates, float64(c.points)/c.wall.Seconds())
		colds = append(colds, c.wall.Seconds())
		last = c
		if e.smoke {
			break
		}
	}
	o.work = median(rates)
	want, err := runSweep(lastOpts, results.NewMemory(), []string{coldFigure})
	if err != nil {
		return o.fail(err)
	}
	o.check(last.body == want.tables[0], "serve: cold figure bytes differ from the local sweep's Table.JSON()")

	if e.trace {
		L := o.layer
		L["serve.warm_p50_ms"] = median(load.figMs)
		L["serve.warm_p99_ms"] = percentile(load.figMs, tailPercentile(len(load.figMs), 99))
		L["serve.gen_late_ms"] = float64(load.worstLat.Nanoseconds()) / 1e6
		L["serve.cold_figure_s"] = median(colds)
		L["serve.sse_events"] = float64(last.events)
		L["serve.cold_sim_share"] = last.busy.Seconds() / (2 * last.wall.Seconds()) // two points in flight: the runner's default pool
		serveLayers(e, o, f, load)
	}
	return o
}

// serveLayers times the service's layers from outside: the handler into a
// recorder, the same request over loopback, the catalogue and coverage
// routes, closed-loop capacity, a higher open-loop rate, and the rate
// limiter's rejection path.
func serveLayers(e *env, o *outcome, f *figService, load loadResult) {
	L := o.layer
	tr := newTracer(4*len(load.samples) + 4096)
	for i, s := range load.samples {
		root := tr.record("client.request", int64(i), -1, s.due.Nanoseconds(), s.end.Nanoseconds())
		tr.record("client.roundtrip", int64(i), root, s.start.Nanoseconds(), s.end.Nanoseconds())
	}

	n := 400
	if e.smoke {
		n = 40
	}
	h := f.srv.Handler()
	record := func(name, path string) []float64 {
		var us []float64
		for i := 0; i < n; i++ {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			t0 := tr.now()
			h.ServeHTTP(rec, req)
			t1 := tr.now()
			tr.record(name, int64(i), -1, t0, t1)
			o.check(rec.Code == http.StatusOK, "serve: %s into a recorder answered %d", path, rec.Code)
			us = append(us, float64(t1-t0)/1e3)
		}
		return us
	}
	figPath := "/api/figures/" + serve.FigureID(warmFigs[0])
	handler := record("serve.handler", figPath)
	L["serve.handler_us"] = median(handler)
	L["serve.catalogue_us"] = median(record("serve.catalogue", "/api/figures"))
	L["serve.coverage_us"] = median(record("serve.coverage", figPath+"/coverage"))

	var loopback []float64
	for i := 0; i < n; i++ {
		t0 := tr.now()
		status, _, err := f.get(figPath)
		t1 := tr.now()
		tr.record("client.loopback", int64(i), -1, t0, t1)
		o.check(err == nil && status == http.StatusOK, "serve: loopback GET answered %d, %v", status, err)
		loopback = append(loopback, float64(t1-t0)/1e3)
	}
	L["serve.transport_us"] = median(loopback) - median(handler)

	// Closed loop: two clients, each sending its next request when the
	// previous one completes.
	closedFor := 1500 * time.Millisecond
	if e.smoke {
		closedFor = 100 * time.Millisecond
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(begin) < closedFor {
				if status, _, err := f.get(figPath); err == nil && status == http.StatusOK {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	L["serve.closed_rps"] = float64(done.Load()) / time.Since(begin).Seconds()

	fastFor := 2 * time.Second
	if e.smoke {
		fastFor = 200 * time.Millisecond
	}
	fast := openLoopLoad(f, e.seed+1, 2*serveRate, fastFor)
	o.attempted += len(fast.samples)
	o.failed += fast.failed
	L["serve.p99_ms_2x_rate"] = percentile(fast.figMs, tailPercentile(len(fast.figMs), 99))

	// The limiter: a service allowing 50 req/s with a burst of 10 is sent
	// requests back to back. Rejections are the expected outcome here, not
	// failures; each must carry Retry-After.
	lim := serve.New(exp.NewRunnerWithStore(gridOptions(e, 0), results.NewMemory()), 1)
	lim.SetRateLimit(50, 10)
	lh := lim.Handler()
	var rejectUs []float64
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodGet, "/api/figures", nil)
		rec := httptest.NewRecorder()
		t0 := tr.now()
		lh.ServeHTTP(rec, req)
		t1 := tr.now()
		if rec.Code == http.StatusTooManyRequests {
			tr.record("serve.reject", int64(i), -1, t0, t1)
			rejectUs = append(rejectUs, float64(t1-t0)/1e3)
			o.check(rec.Header().Get("Retry-After") != "", "serve: 429 without Retry-After")
		}
	}
	lim.Close()
	L["serve.reject_us"] = median(rejectUs)
	L["serve.limited_share"] = float64(len(rejectUs)) / float64(n)
	o.check(len(rejectUs) > 0, "serve: the rate limiter rejected nothing")

	o.saveSpans(e, tr)
}
