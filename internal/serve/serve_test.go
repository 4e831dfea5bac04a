package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
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

// newTestServer builds a server (and its runner) over the cache dir.
func newTestServer(t *testing.T, dir string) (*Server, *exp.Runner) {
	t.Helper()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunnerWithStore(testOptions(), store)
	s := New(runner, 2)
	t.Cleanup(s.Close)
	return s, runner
}

// get performs one request against the handler without a network socket.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// waitJobDone polls the job status endpoint until the job leaves the
// queue/run states.
func waitJobDone(t *testing.T, s *Server, jobID string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		rec := get(t, s, "/api/jobs/"+jobID)
		if rec.Code != http.StatusOK {
			t.Fatalf("job status: HTTP %d: %s", rec.Code, rec.Body)
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

// TestWarmFigureServedWithZeroSimulations is the acceptance criterion:
// with a fully warmed cache directory the figure endpoint simulates
// nothing and returns bytes identical to bhsweep's -json output (which
// is exp.Table.JSON()).
func TestWarmFigureServedWithZeroSimulations(t *testing.T) {
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := exp.NewRunnerWithStore(testOptions(), store)
	if err := warm.Prefetch(warm.PointsFor([]string{"13"})); err != nil {
		t.Fatal(err)
	}
	tbl, err := warm.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.JSON()

	s, runner := newTestServer(t, dir)
	rec := get(t, s, "/api/figures/fig13")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm figure: HTTP %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Body.String(); got != want {
		t.Errorf("served figure differs from bhsweep -json output:\n got: %s\nwant: %s", got, want)
	}
	if got := runner.Executed(); got != 0 {
		t.Errorf("warm figure request simulated %d points, want 0", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	// Both spellings address the figure.
	if rec := get(t, s, "/api/figures/13"); rec.Code != http.StatusOK {
		t.Errorf("numeric spelling: HTTP %d", rec.Code)
	}
}

// TestColdFigureComputesViaJob: a cold figure returns 202 with a job
// ticket; once the job finishes, the same GET serves the figure, having
// simulated each point exactly once.
func TestColdFigureComputesViaJob(t *testing.T) {
	dir := t.TempDir()
	s, runner := newTestServer(t, dir)
	points := len(runner.PointsFor([]string{"13"}))

	rec := get(t, s, "/api/figures/fig13")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cold figure: HTTP %d, want 202", rec.Code)
	}
	var ticket struct {
		Job       JobStatus `json:"job"`
		EventsURL string    `json:"events_url"`
		FigureURL string    `json:"figure_url"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ticket); err != nil {
		t.Fatal(err)
	}
	if ticket.Job.ID == "" || ticket.EventsURL == "" {
		t.Fatalf("malformed ticket: %s", rec.Body)
	}
	if st := waitJobDone(t, s, ticket.Job.ID); st.State != JobDone {
		t.Fatalf("job finished as %q (%s)", st.State, st.Error)
	}
	if got := runner.Executed(); got != int64(points) {
		t.Errorf("job simulated %d points, want %d", got, points)
	}
	rec = get(t, s, ticket.FigureURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("figure after job: HTTP %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "\"title\": \"Figure 13") {
		t.Errorf("figure body missing title: %s", rec.Body)
	}
}

// TestHalfWarmSamplingFigureComputesViaJob: the sampling validation's
// sampled twins are points like any other. Over a store holding only the
// exact halves the figure is not covered, so the GET answers 202 and the
// job — not the HTTP handler — simulates the twins; afterwards the GET
// serves the table and simulates nothing.
func TestHalfWarmSamplingFigureComputesViaJob(t *testing.T) {
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := exp.NewRunnerWithStore(testOptions(), store)
	var exact []exp.Point
	all := warm.PointsFor([]string{"sampling"})
	for _, p := range all {
		if p.Sampling == exp.SamplingExact {
			exact = append(exact, p)
		}
	}
	if len(exact) == 0 || len(exact) == len(all) {
		t.Fatalf("sampling enumerates %d exact of %d points; want both twins of each pair", len(exact), len(all))
	}
	if err := warm.Prefetch(exact); err != nil {
		t.Fatal(err)
	}

	s, runner := newTestServer(t, dir)
	rec := get(t, s, "/api/figures/sampling")
	if rec.Code != http.StatusAccepted {
		t.Fatalf("half-warm sampling figure: HTTP %d, want 202 (executed %d)", rec.Code, runner.Executed())
	}
	var ticket struct {
		Job JobStatus `json:"job"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ticket); err != nil {
		t.Fatal(err)
	}
	st := waitJobDone(t, s, ticket.Job.ID)
	if st.State != JobDone {
		t.Fatalf("job finished as %q (%s)", st.State, st.Error)
	}
	sampled := len(all) - len(exact)
	if st.Total != len(all) || st.Cached != len(exact) || st.Simulated != sampled {
		t.Errorf("job = %d total, %d cached, %d simulated; want %d, %d, %d",
			st.Total, st.Cached, st.Simulated, len(all), len(exact), sampled)
	}
	if got := runner.Executed(); got != int64(sampled) {
		t.Errorf("server simulated %d points, want the job's %d", got, sampled)
	}
	if rec := get(t, s, "/api/figures/sampling"); rec.Code != http.StatusOK {
		t.Fatalf("figure after job: HTTP %d: %s", rec.Code, rec.Body)
	}
	if got := runner.Executed(); got != int64(sampled) {
		t.Errorf("warm GET simulated %d more point(s)", got-int64(sampled))
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses an SSE stream until EOF.
func readSSE(r io.Reader) ([]sseEvent, error) {
	var (
		events []sseEvent
		cur    sseEvent
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	return events, sc.Err()
}

// TestSSEStreamReportsEveryPointOnce is the acceptance criterion's SSE
// half: subscribe over a real connection while the job runs; every point
// appears exactly once as started and once as finished, finished
// counters are strictly ordered, and the stream terminates with a done
// event. Table 3 streams like any figure since its work became points
// (its job once had none: an empty stream, then one long silent render).
func TestSSEStreamReportsEveryPointOnce(t *testing.T) {
	for _, name := range []string{"13", "table3"} {
		t.Run(name, func(t *testing.T) { sseStreamReportsEveryPointOnce(t, name) })
	}
}

func sseStreamReportsEveryPointOnce(t *testing.T, name string) {
	dir := t.TempDir()
	s, runner := newTestServer(t, dir)
	points := len(runner.PointsFor([]string{name}))
	if points == 0 {
		t.Fatalf("%s enumerates no points to stream", name)
	}

	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()

	resp, err := http.Get(httpSrv.URL + "/api/figures/" + FigureID(name))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold figure: HTTP %d", resp.StatusCode)
	}
	var ticket struct {
		EventsURL string `json:"events_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ticket); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(httpSrv.URL + ticket.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events, err := readSSE(stream.Body)
	if err != nil {
		t.Fatal(err)
	}

	startedLabels := map[string]int{}
	finishedLabels := map[string]int{}
	lastDone := 0
	var done int
	for _, ev := range events {
		switch ev.name {
		case "point-started", "point-finished":
			var e exp.Event
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Fatalf("bad event payload %q: %v", ev.data, err)
			}
			if ev.name == "point-started" {
				startedLabels[e.Label]++
			} else {
				finishedLabels[e.Label]++
				if e.Done != lastDone+1 {
					t.Errorf("finished counter jumped from %d to %d", lastDone, e.Done)
				}
				lastDone = e.Done
			}
		case "done":
			done++
			var st JobStatus
			if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
				t.Fatal(err)
			}
			if st.State != JobDone {
				t.Errorf("done event state = %q (%s)", st.State, st.Error)
			}
		default:
			t.Errorf("unknown SSE event %q", ev.name)
		}
	}
	if done != 1 {
		t.Errorf("saw %d done events, want 1", done)
	}
	if len(finishedLabels) != points {
		t.Errorf("stream finished %d distinct points, want %d", len(finishedLabels), points)
	}
	for label, n := range finishedLabels {
		if n != 1 {
			t.Errorf("point %q finished %d times in the stream", label, n)
		}
		if startedLabels[label] != 1 {
			t.Errorf("point %q started %d times in the stream", label, startedLabels[label])
		}
	}

	// A subscriber arriving after completion replays the same history.
	late, err := http.Get(httpSrv.URL + ticket.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	replay, err := readSSE(late.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != len(events) {
		t.Errorf("late subscriber saw %d events, live one saw %d", len(replay), len(events))
	}
}

// TestConcurrentRequestsShareOneJob: many clients asking for the same
// cold figure get the same job id, and the sweep runs once.
func TestConcurrentRequestsShareOneJob(t *testing.T) {
	dir := t.TempDir()
	s, runner := newTestServer(t, dir)
	points := len(runner.PointsFor([]string{"13"}))

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/figures/fig13", nil))
			if rec.Code != http.StatusAccepted {
				t.Errorf("client %d: HTTP %d", i, rec.Code)
				return
			}
			var ticket struct {
				Job JobStatus `json:"job"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &ticket); err != nil {
				t.Error(err)
				return
			}
			ids[i] = ticket.Job.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("client %d got job %q, client 0 got %q — job not shared", i, ids[i], ids[0])
		}
	}
	if st := waitJobDone(t, s, ids[0]); st.State != JobDone {
		t.Fatalf("shared job finished as %q (%s)", st.State, st.Error)
	}
	if got := runner.Executed(); got != int64(points) {
		t.Errorf("%d clients caused %d simulations, want %d", clients, got, points)
	}
}

// TestFiguresCatalogueAndCoverage: the catalogue lists every experiment
// with its coverage, and coverage moves when a figure is computed.
func TestFiguresCatalogueAndCoverage(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, dir)
	rec := get(t, s, "/api/figures")
	if rec.Code != http.StatusOK {
		t.Fatalf("catalogue: HTTP %d", rec.Code)
	}
	var page paged[figureInfo]
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.TotalItems != len(exp.Experiments()) {
		t.Fatalf("catalogue lists %d figures, want %d", page.TotalItems, len(exp.Experiments()))
	}
	if len(page.Items) != len(exp.Experiments()) {
		t.Fatalf("first page holds %d figures, want all %d (catalogue fits the default page size)",
			len(page.Items), len(exp.Experiments()))
	}
	byID := map[string]figureInfo{}
	for _, f := range page.Items {
		byID[f.ID] = f
	}
	if f := byID["fig13"]; f.Ready || f.Cached != 0 || f.Total == 0 {
		t.Errorf("cold fig13 = %+v", f)
	}
	if f := byID["table1"]; !f.Ready || f.Total != 0 {
		t.Errorf("static table1 = %+v", f)
	}

	// Static figures serve instantly even on a cold store.
	if rec := get(t, s, "/api/figures/table1"); rec.Code != http.StatusOK {
		t.Errorf("static figure: HTTP %d", rec.Code)
	}
	// Unknown figures 404.
	if rec := get(t, s, "/api/figures/fig99"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown figure: HTTP %d", rec.Code)
	}
	if rec := get(t, s, "/api/jobs/job-99"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: HTTP %d", rec.Code)
	}
}

// TestIndexServed: the embedded index page responds at the root only.
func TestIndexServed(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("index: HTTP %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "bhserve") {
		t.Error("index page unrecognizable")
	}
	if rec := get(t, s, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: HTTP %d", rec.Code)
	}
}

// TestFigureIDRoundTrip: the id mapping is self-inverse over the
// catalogue.
func TestFigureIDRoundTrip(t *testing.T) {
	for _, ex := range exp.Experiments() {
		id := FigureID(ex.Name)
		if got := experimentName(id); got != ex.Name {
			t.Errorf("experimentName(FigureID(%q)) = %q", ex.Name, got)
		}
	}
	if FigureID("8") != "fig8" || experimentName("fig8") != "8" {
		t.Error("numeric mapping broken")
	}
	if FigureID("table3") != "table3" || experimentName("table3") != "table3" {
		t.Error("non-numeric names must map to themselves")
	}
}
