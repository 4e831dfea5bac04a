package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
	"breakhammer/internal/workload"
)

// testOptions returns the smallest useful sweep configuration; figure 13
// enumerates two points with it.
func testOptions() exp.Options {
	o := exp.QuickOptions()
	o.Base.TargetInsts = 100_000
	o.Base.BHWindow = 200_000
	o.NRHs = []int{128}
	o.Mechanisms = []string{"rfm"}
	o.Fig2Mechs = []string{"rfm"}
	return o
}

// newCoordinator builds a coordinator (and its runner) over a fresh
// persistent store in dir.
func newCoordinator(t *testing.T, dir string, opts exp.Options, names []string, ttl time.Duration) (*Coordinator, *exp.Runner) {
	t.Helper()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunnerWithStore(opts, store)
	c, err := NewCoordinator(runner, names, ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, runner
}

// serveCoordinator mounts the coordinator on an httptest server.
func serveCoordinator(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// post sends one raw protocol request and returns status + body.
func post(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, data
}

// runTestWorker joins the fleet with a fresh local store under its own
// temp directory.
func runTestWorker(t *testing.T, url, name string) (WorkerSummary, error) {
	t.Helper()
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return RunWorker(context.Background(), WorkerOptions{
		URL:         url,
		Name:        name,
		Store:       store,
		BaseBackoff: 20 * time.Millisecond,
	})
}

// serialTableJSON runs the experiment in-process, exactly like
// `bhsweep -json`, and returns the rendered table bytes.
func serialTableJSON(t *testing.T, opts exp.Options, name string) string {
	t.Helper()
	r := exp.NewRunner(opts)
	if err := r.Prefetch(r.PointsFor([]string{name})); err != nil {
		t.Fatal(err)
	}
	ex, ok := exp.ExperimentByName(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	tbl, err := ex.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.JSON()
}

// coordinatorTableJSON renders the experiment from the coordinator's
// (now warm) store without simulating.
func coordinatorTableJSON(t *testing.T, runner *exp.Runner, name string) string {
	t.Helper()
	ex, ok := exp.ExperimentByName(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	tbl, err := ex.Run(runner)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.JSON()
}

// TestHelloHandshake: the version handshake accepts matching workers and
// rejects protocol or schema mismatches with clear errors.
func TestHelloHandshake(t *testing.T) {
	c, _ := newCoordinator(t, t.TempDir(), testOptions(), []string{"13"}, 0)
	srv := serveCoordinator(t, c)
	cases := []struct {
		name       string
		req        helloRequest
		wantStatus int
		wantErr    string // substring of the error body; "" = success
	}{
		{"ok", helloRequest{Worker: "w", Protocol: ProtocolVersion, Schema: results.SchemaVersion}, http.StatusOK, ""},
		{"old protocol", helloRequest{Worker: "w", Protocol: ProtocolVersion - 1, Schema: results.SchemaVersion}, http.StatusConflict, "protocol mismatch"},
		{"future protocol", helloRequest{Worker: "w", Protocol: ProtocolVersion + 5, Schema: results.SchemaVersion}, http.StatusConflict, "protocol mismatch"},
		{"old schema", helloRequest{Worker: "w", Protocol: ProtocolVersion, Schema: results.SchemaVersion - 1}, http.StatusConflict, "schema mismatch"},
		{"future schema", helloRequest{Worker: "w", Protocol: ProtocolVersion, Schema: results.SchemaVersion + 1}, http.StatusConflict, "schema mismatch"},
		{"zero values", helloRequest{}, http.StatusConflict, "protocol mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, srv.URL+"/api/fleet/hello", tc.req)
			if status != tc.wantStatus {
				t.Fatalf("hello = HTTP %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			if tc.wantErr == "" {
				var hello helloResponse
				if err := json.Unmarshal(body, &hello); err != nil {
					t.Fatal(err)
				}
				var opts exp.Options
				if err := json.Unmarshal(hello.Options, &opts); err != nil {
					t.Fatalf("options do not round-trip: %v", err)
				}
				if len(opts.NRHs) != 1 || opts.NRHs[0] != 128 {
					t.Errorf("shipped options lost the sweep: NRHs = %v", opts.NRHs)
				}
				return
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body is not JSON: %s", body)
			}
			if !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
	// A rejected body that is not JSON at all.
	res, err := http.Post(srv.URL+"/api/fleet/hello", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage hello = HTTP %d, want 400", res.StatusCode)
	}
}

// TestFleetCompletesFigure: two workers drain the figure with every
// point simulated exactly once between them, the coordinator itself
// simulates nothing, the stored table is byte-identical to a serial
// in-process sweep, and a warm fleet rerun performs zero simulations.
func TestFleetCompletesFigure(t *testing.T) {
	opts := testOptions()
	dir := t.TempDir()
	c, runner := newCoordinator(t, dir, opts, []string{"13"}, 0)
	srv := serveCoordinator(t, c)
	total := len(runner.PointsFor([]string{"13"}))
	if total < 2 {
		t.Fatalf("figure 13 enumerates %d points, need >= 2", total)
	}

	var wg sync.WaitGroup
	sums := make([]WorkerSummary, 2)
	errs := make([]error, 2)
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i], errs[i] = runTestWorker(t, srv.URL, []string{"alpha", "beta"}[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !c.Done() {
		t.Fatal("coordinator not done after both workers exited")
	}
	simulated := sums[0].Simulated + sums[1].Simulated
	completed := sums[0].Completed + sums[1].Completed
	if simulated != total || completed != total {
		t.Errorf("fleet simulated %d and completed %d points, want %d each (sums %+v)", simulated, completed, total, sums)
	}
	if got := runner.Executed(); got != 0 {
		t.Errorf("coordinator simulated %d points itself, want 0", got)
	}
	st := c.Status()
	if st.Done != total || st.Steals != 0 {
		t.Errorf("status = %d done / %d steals, want %d / 0", st.Done, st.Steals, total)
	}

	// The authoritative table renders byte-identically to `bhsweep -json`.
	if got, want := coordinatorTableJSON(t, runner, "13"), serialTableJSON(t, opts, "13"); got != want {
		t.Errorf("fleet table diverges from the serial run:\nfleet:  %s\nserial: %s", got, want)
	}

	// Warm rerun: a fresh coordinator over the same store pre-marks every
	// point done, and a joining worker simulates nothing.
	c2, runner2 := newCoordinator(t, dir, opts, []string{"13"}, 0)
	srv2 := serveCoordinator(t, c2)
	if !c2.Done() {
		t.Fatal("warm coordinator not born done")
	}
	sum, err := runTestWorker(t, srv2.URL, "gamma")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Simulated != 0 || sum.Completed != 0 {
		t.Errorf("warm rerun worker simulated %d / completed %d points, want 0 / 0", sum.Simulated, sum.Completed)
	}
	if got := runner2.Executed(); got != 0 {
		t.Errorf("warm coordinator simulated %d points, want 0", got)
	}
	if st := c2.Status(); st.Cached != total {
		t.Errorf("warm status reports %d cached points, want %d", st.Cached, total)
	}
}

// TestFleetDrainsStudyPoints: Table 3 and Section 5 are leased like any
// figure. They once simulated inside their renderers, so a coordinator
// over them was born Done with nothing to lease and ran everything itself
// at render time; now one worker drains their study points — the census
// and the BreakHammer ledger riding back in the completions — and the
// coordinator renders both tables without simulating.
func TestFleetDrainsStudyPoints(t *testing.T) {
	opts := testOptions()
	names := []string{"table3", "sec5"}
	c, runner := newCoordinator(t, t.TempDir(), opts, names, 0)
	srv := serveCoordinator(t, c)
	if c.Done() {
		t.Fatal("a cold coordinator over table3 and sec5 has nothing to lease")
	}
	sum, err := runTestWorker(t, srv.URL, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if total := len(runner.PointsFor(names)); !c.Done() || sum.Simulated != total {
		t.Errorf("worker simulated %d of %d points, coordinator done = %v", sum.Simulated, total, c.Done())
	}
	for _, name := range names {
		if got, want := coordinatorTableJSON(t, runner, name), serialTableJSON(t, opts, name); got != want {
			t.Errorf("fleet %s diverges from the serial run:\nfleet:  %s\nserial: %s", name, got, want)
		}
	}
	if got := runner.Executed(); got != 0 {
		t.Errorf("coordinator simulated %d points itself, want 0", got)
	}
}

// TestLeaseStealing: a worker that stops heartbeating mid-point loses
// its lease exactly once to the TTL, the point is re-issued to a live
// worker, and the final table is byte-identical to a serial run.
func TestLeaseStealing(t *testing.T) {
	opts := testOptions()
	const ttl = 400 * time.Millisecond
	c, runner := newCoordinator(t, t.TempDir(), opts, []string{"13"}, ttl)
	srv := serveCoordinator(t, c)
	total := len(runner.PointsFor([]string{"13"}))

	// Worker A joins by hand, leases one point, and goes silent: no
	// heartbeats, no result.
	status, _ := post(t, srv.URL+"/api/fleet/hello",
		helloRequest{Worker: "silent", Protocol: ProtocolVersion, Schema: results.SchemaVersion})
	if status != http.StatusOK {
		t.Fatalf("hello = HTTP %d", status)
	}
	status, body := post(t, srv.URL+"/api/fleet/lease", leaseRequest{Worker: "silent"})
	if status != http.StatusOK {
		t.Fatalf("lease = HTTP %d", status)
	}
	var lease exp.Lease
	if err := json.Unmarshal(body, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Token == "" {
		t.Fatalf("silent worker got no lease: %s", body)
	}

	// Let the lease expire, then let a live worker drain the whole sweep
	// — including the stolen point.
	time.Sleep(2 * ttl)
	sum, err := runTestWorker(t, srv.URL, "live")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Simulated != total {
		t.Errorf("live worker simulated %d points, want %d (the stolen point must be re-issued)", sum.Simulated, total)
	}
	if !c.Done() {
		t.Fatal("sweep not done")
	}
	st := c.Status()
	if st.Steals != 1 {
		t.Errorf("status reports %d steals, want exactly 1", st.Steals)
	}

	// The silent worker's token is dead: heartbeat and submit earn 410.
	if status, _ := post(t, srv.URL+"/api/fleet/heartbeat", tokenRequest{Token: lease.Token}); status != http.StatusGone {
		t.Errorf("stale heartbeat = HTTP %d, want 410", status)
	}

	if got, want := coordinatorTableJSON(t, runner, "13"), serialTableJSON(t, opts, "13"); got != want {
		t.Errorf("post-steal table diverges from the serial run:\nfleet:  %s\nserial: %s", got, want)
	}
}

// TestResultValidation: the coordinator refuses submissions whose
// schema, key, or payload cannot belong to the leased point.
func TestResultValidation(t *testing.T) {
	c, runner := newCoordinator(t, t.TempDir(), testOptions(), []string{"13"}, 0)
	srv := serveCoordinator(t, c)

	status, body := post(t, srv.URL+"/api/fleet/lease", leaseRequest{Worker: "w"})
	if status != http.StatusOK {
		t.Fatalf("lease = HTTP %d", status)
	}
	var lease exp.Lease
	if err := json.Unmarshal(body, &lease); err != nil {
		t.Fatal(err)
	}
	// Simulate on a worker-side runner with its own store: the
	// coordinator's store must stay clean until it accepts a submission.
	wrunner := exp.NewRunner(testOptions())
	if err := wrunner.Prefetch([]exp.Point{lease.Point}); err != nil {
		t.Fatal(err)
	}
	rs, _ := wrunner.Store().Get(lease.Key)
	elapsed, _ := wrunner.Store().Elapsed(lease.Key)
	good := resultRequest{Token: lease.Token, Completion: exp.Completion{Key: lease.Key,
		Schema: results.SchemaVersion, ElapsedNS: elapsed.Nanoseconds(), Results: rs}}

	cases := []struct {
		name       string
		mutate     func(r resultRequest) resultRequest
		wantStatus int
		wantErr    string
	}{
		{"wrong schema", func(r resultRequest) resultRequest { r.Schema++; return r }, http.StatusBadRequest, "schema mismatch"},
		{"wrong key", func(r resultRequest) resultRequest { r.Key = strings.Repeat("0", len(r.Key)); return r }, http.StatusBadRequest, "key mismatch"},
		{"empty results", func(r resultRequest) resultRequest { r.Results = nil; return r }, http.StatusBadRequest, "empty result"},
		{"bogus token", func(r resultRequest) resultRequest { r.Token = "nope"; return r }, http.StatusGone, "lease expired or unknown"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, srv.URL+"/api/fleet/result", tc.mutate(good))
			if status != tc.wantStatus {
				t.Fatalf("result = HTTP %d, want %d (body %s)", status, tc.wantStatus, body)
			}
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantErr)
			}
		})
	}
	// Every rejection left the lease intact and the store clean.
	if runner.Store().Has(lease.Key) {
		t.Fatal("a rejected submission reached the store")
	}
	// The untouched original lands.
	if status, body := post(t, srv.URL+"/api/fleet/result", good); status != http.StatusOK {
		t.Fatalf("valid result = HTTP %d (body %s)", status, body)
	}
	if !runner.Store().Has(lease.Key) {
		t.Fatal("accepted result missing from the store")
	}
	// The token died with the submission.
	if status, _ := post(t, srv.URL+"/api/fleet/result", good); status != http.StatusGone {
		t.Error("a consumed token was accepted twice")
	}
}

// traceTestFile writes a small replayable trace and returns its path.
func traceTestFile(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, workload.ClassSpec(workload.Medium, 0, 42), 0, 400); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceEditMidLeaseFailsLoudly: the coordinator pins trace content
// hashes at enumeration; a worker keying the same point against an
// edited trace derives a different store key and refuses the lease
// loudly instead of simulating the wrong bytes — and the authoritative
// store stays clean.
func TestTraceEditMidLeaseFailsLoudly(t *testing.T) {
	traceDir := t.TempDir()
	path := traceTestFile(t, traceDir, "w.trace")
	opts := testOptions()
	opts.Traces = []string{path}

	c, runner := newCoordinator(t, t.TempDir(), opts, []string{"13"}, 0)
	srv := serveCoordinator(t, c)

	// The trace changes under the fleet after the points were keyed.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTrace(f, workload.ClassSpec(workload.High, 0, 99), 0, 500); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = runTestWorker(t, srv.URL, "w")
	if err == nil || !strings.Contains(err.Error(), "key mismatch") {
		t.Fatalf("worker error = %v, want a loud store-key mismatch", err)
	}
	for _, p := range runner.PointsFor([]string{"13"}) {
		key, kerr := runner.PointKey(p)
		if kerr != nil {
			continue // the coordinator's own key derivation now sees the new trace
		}
		if runner.Store().Has(key) {
			t.Errorf("point %v reached the store despite the edited trace", p)
		}
	}
	if c.Done() {
		t.Error("coordinator reports done despite the rejected worker")
	}
}

// TestReleaseRequeues: a released lease returns its point to the queue
// without counting as a steal, and release is idempotent.
func TestReleaseRequeues(t *testing.T) {
	c, _ := newCoordinator(t, t.TempDir(), testOptions(), []string{"13"}, 0)
	srv := serveCoordinator(t, c)

	status, body := post(t, srv.URL+"/api/fleet/lease", leaseRequest{Worker: "w"})
	if status != http.StatusOK {
		t.Fatalf("lease = HTTP %d", status)
	}
	var lease exp.Lease
	if err := json.Unmarshal(body, &lease); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // idempotent
		if status, _ := post(t, srv.URL+"/api/fleet/release", tokenRequest{Token: lease.Token}); status != http.StatusOK {
			t.Fatalf("release #%d = HTTP %d", i+1, status)
		}
	}
	st := c.Status()
	if st.Steals != 0 || st.Leased != 0 || st.Pending != st.Total {
		t.Errorf("after release: %+v, want everything pending and no steals", st)
	}
	// The point leases out again immediately.
	status, body = post(t, srv.URL+"/api/fleet/lease", leaseRequest{Worker: "w2"})
	if status != http.StatusOK {
		t.Fatalf("re-lease = HTTP %d", status)
	}
	var again exp.Lease
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Token == "" || again.Token == lease.Token {
		t.Errorf("re-lease got token %q (previous %q), want a fresh grant", again.Token, lease.Token)
	}
}

// TestWarmCoordinatorZeroShardReads is the regression pin for the fleet
// half of the store-index fix: building a coordinator over an
// already-complete store pre-marks every point through the index and
// performs zero shard-content reads, and lease requests against the
// warm store stay read-free too.
func TestWarmCoordinatorZeroShardReads(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	names := []string{"fig13"}

	// Warm the store by simulating the figure's points in-process.
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := exp.NewRunnerWithStore(opts, store)
	if err := warm.Prefetch(warm.PointsFor(names)); err != nil {
		t.Fatal(err)
	}

	// A fresh coordinator over the same directory loads everything at
	// Open; pre-marking must come from the index, not from shard scans.
	c, runner := newCoordinator(t, dir, opts, names, time.Minute)
	st := c.Status()
	if st.Cached != st.Total || st.Done != st.Total {
		t.Fatalf("warm coordinator: %d/%d cached, want all", st.Cached, st.Total)
	}
	if got := runner.Store().Stats().ShardReads; got != 0 {
		t.Fatalf("warm coordinator start performed %d shard reads, want 0", got)
	}

	// Lease requests on the warm (and quiescent) store: the per-request
	// index sync stats the shards and reads nothing.
	srv := serveCoordinator(t, c)
	status, body := post(t, srv.URL+"/api/fleet/hello", helloRequest{
		Worker: "w1", Protocol: ProtocolVersion, Schema: results.SchemaVersion,
	})
	if status != http.StatusOK {
		t.Fatalf("hello: HTTP %d: %s", status, body)
	}
	status, _ = post(t, srv.URL+"/api/fleet/lease", leaseRequest{Worker: "w1"})
	if status != http.StatusOK && status != http.StatusNoContent {
		t.Fatalf("lease: HTTP %d", status)
	}
	if got := runner.Store().Stats().ShardReads; got != 0 {
		t.Fatalf("lease against warm store performed %d shard reads, want 0", got)
	}
}

// TestClosedCoordinatorGrantsNothing is the regression pin for leases
// granted during shutdown: bhserve closes the coordinator before its
// HTTP server finishes draining, so a worker still polling must be told
// to wait — not handed a lease whose claim file nobody will ever
// release, pinning the point for a full TTL against the restarted
// server and any local sweep.
func TestClosedCoordinatorGrantsNothing(t *testing.T) {
	dir := t.TempDir()
	c, _ := newCoordinator(t, dir, testOptions(), []string{"13"}, 0)
	srv := serveCoordinator(t, c)
	c.Close()

	status, body := post(t, srv.URL+"/api/fleet/lease", leaseRequest{Worker: "late"})
	if status != http.StatusOK {
		t.Fatalf("lease after Close = HTTP %d (body %s)", status, body)
	}
	var lease exp.Lease
	if err := json.Unmarshal(body, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Token != "" || !lease.Wait {
		t.Errorf("closed coordinator answered %s, want a wait without a token", body)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "claims"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("closed coordinator left %d claim file(s) behind", len(entries))
	}
}

// TestUndecodableOKAnswerIsFatal: a 2xx answer whose body is not the
// protocol's JSON (a proxy's HTML page, another service on the port)
// must stop the worker promptly with an error instead of being retried
// forever as if it were a connection failure.
func TestUndecodableOKAnswerIsFatal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "not-json")
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := RunWorker(ctx, WorkerOptions{URL: srv.URL, Name: "w", BaseBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("worker accepted a non-JSON 200")
	}
	if ctx.Err() != nil {
		t.Fatalf("worker retried the undecodable answer until the deadline: %v", err)
	}
	if !strings.Contains(err.Error(), "undecodable") {
		t.Errorf("error %q does not say the answer was undecodable", err)
	}
}
