package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
)

// request performs one request with optional headers and body against
// the full middleware-wrapped handler.
func request(t *testing.T, s *Server, method, path, body string, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestFiguresPaginationContract pins the catalogue's pagination
// behavior: stable ordering, concatenated pages equal to the
// unpaginated set, out-of-range pages empty rather than errors, the
// size cap enforced, and malformed parameters rejected.
func TestFiguresPaginationContract(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	decode := func(path string) paged[figureInfo] {
		t.Helper()
		rec := get(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, rec.Code, rec.Body)
		}
		var page paged[figureInfo]
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	full := decode("/api/figures?page_size=100")
	if full.TotalItems != len(exp.Experiments()) || len(full.Items) != full.TotalItems {
		t.Fatalf("unpaginated catalogue holds %d/%d items, want all %d",
			len(full.Items), full.TotalItems, len(exp.Experiments()))
	}

	// Concatenating size-3 pages reproduces the full set in order.
	var concat []figureInfo
	for page := 1; ; page++ {
		p := decode("/api/figures?page_number=" + strconv.Itoa(page) + "&page_size=3")
		if p.PageNumber != page || p.PageSize != 3 {
			t.Fatalf("page %d echoed as number=%d size=%d", page, p.PageNumber, p.PageSize)
		}
		wantPages := (full.TotalItems + 2) / 3
		if p.TotalPages != wantPages {
			t.Fatalf("total_pages = %d, want %d", p.TotalPages, wantPages)
		}
		if len(p.Items) == 0 {
			break
		}
		concat = append(concat, p.Items...)
	}
	if len(concat) != len(full.Items) {
		t.Fatalf("concatenated pages hold %d items, full set %d", len(concat), len(full.Items))
	}
	for i := range concat {
		if concat[i].ID != full.Items[i].ID {
			t.Fatalf("item %d: paged id %q != full id %q — ordering unstable", i, concat[i].ID, full.Items[i].ID)
		}
	}

	// Stable across repeated calls.
	again := decode("/api/figures?page_size=100")
	for i := range again.Items {
		if again.Items[i].ID != full.Items[i].ID {
			t.Fatal("catalogue ordering changed between identical requests")
		}
	}

	// Out-of-range page: empty items, still HTTP 200, non-null array.
	rec := get(t, s, "/api/figures?page_number=99")
	if rec.Code != http.StatusOK {
		t.Fatalf("out-of-range page: HTTP %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"items": []`) && !strings.Contains(rec.Body.String(), `"items":[]`) {
		t.Fatalf("out-of-range page items not an empty array: %s", rec.Body)
	}

	// Oversize page_size clamps to the endpoint's cap.
	if p := decode("/api/figures?page_size=9999"); p.PageSize != figuresPageMax {
		t.Fatalf("oversize page_size clamped to %d, want %d", p.PageSize, figuresPageMax)
	}

	// Malformed parameters are 400s.
	for _, q := range []string{"?page_number=0", "?page_number=x", "?page_size=-1", "?page_size=x"} {
		if rec := get(t, s, "/api/figures"+q); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", q, rec.Code)
		}
	}
}

// TestCoveragePaginationContract: the per-figure coverage endpoint pages
// its points with the same contract.
func TestCoveragePaginationContract(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	rec := get(t, s, "/api/figures/fig13/coverage")
	if rec.Code != http.StatusOK {
		t.Fatalf("coverage: HTTP %d: %s", rec.Code, rec.Body)
	}
	var full paged[exp.PointCoverage]
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.TotalItems == 0 {
		t.Fatal("fig13 coverage lists no points")
	}
	for _, pc := range full.Items {
		if pc.Cached {
			t.Fatalf("cold store reports point %s cached", pc.Key)
		}
		if pc.Key == "" || pc.Label == "" {
			t.Fatalf("malformed coverage entry %+v", pc)
		}
	}

	// Size-1 pages concatenate to the full set.
	var concat []exp.PointCoverage
	for page := 1; page <= full.TotalItems; page++ {
		rec := get(t, s, "/api/figures/fig13/coverage?page_size=1&page_number="+strconv.Itoa(page))
		var p paged[exp.PointCoverage]
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		concat = append(concat, p.Items...)
	}
	if len(concat) != full.TotalItems {
		t.Fatalf("concatenated coverage pages hold %d points, want %d", len(concat), full.TotalItems)
	}
	for i := range concat {
		if concat[i].Key != full.Items[i].Key {
			t.Fatal("coverage ordering unstable across pages")
		}
	}

	// Cap, out-of-range and 404 behavior.
	rec = get(t, s, "/api/figures/fig13/coverage?page_size=9999")
	var capped paged[exp.PointCoverage]
	if err := json.Unmarshal(rec.Body.Bytes(), &capped); err != nil {
		t.Fatal(err)
	}
	if capped.PageSize != coveragePageMax {
		t.Fatalf("coverage page_size clamped to %d, want %d", capped.PageSize, coveragePageMax)
	}
	if rec := get(t, s, "/api/figures/fig13/coverage?page_number=9"); rec.Code != http.StatusOK {
		t.Errorf("out-of-range coverage page: HTTP %d", rec.Code)
	}
	if rec := get(t, s, "/api/figures/fig99/coverage"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown figure coverage: HTTP %d", rec.Code)
	}
}

// TestQuotaContract: the token bucket admits bursts, rejects the excess
// with 429 + Retry-After, refills with time, and accounts per client.
func TestQuotaContract(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	s.SetRateLimit(1, 2) // 1 req/s, burst 2
	clock := time.Unix(5000, 0)
	s.limiter.now = func() time.Time { return clock }

	alice := map[string]string{"X-API-Token": "alice"}
	for i := 0; i < 2; i++ {
		if rec := request(t, s, "GET", "/api/stats", "", alice); rec.Code != http.StatusOK {
			t.Fatalf("burst request %d: HTTP %d", i, rec.Code)
		}
	}
	rec := request(t, s, "GET", "/api/stats", "", alice)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: HTTP %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}

	// A different client has its own bucket.
	bob := map[string]string{"Authorization": "Bearer bob"}
	if rec := request(t, s, "GET", "/api/stats", "", bob); rec.Code != http.StatusOK {
		t.Fatalf("second client: HTTP %d", rec.Code)
	}

	// One second refills one token.
	clock = clock.Add(time.Second)
	if rec := request(t, s, "GET", "/api/stats", "", alice); rec.Code != http.StatusOK {
		t.Fatalf("post-refill request: HTTP %d", rec.Code)
	}

	// The stats endpoint reports both clients with their counters.
	body := request(t, s, "GET", "/api/stats", "", bob).Body.Bytes()
	var st statsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	byClient := map[string]ClientStats{}
	for _, c := range st.Clients {
		byClient[c.Client] = c
	}
	a := byClient["token:alice"]
	if a.Requests != 4 || a.Limited != 1 {
		t.Fatalf("alice accounted %d requests / %d limited, want 4 / 1", a.Requests, a.Limited)
	}
	if b := byClient["token:bob"]; b.Requests != 2 || b.Limited != 0 {
		t.Fatalf("bob accounted %d requests / %d limited, want 2 / 0", b.Requests, b.Limited)
	}
}

// TestQuotaConcurrent hammers one bucket from many goroutines under the
// race detector: exactly burst requests pass on a frozen clock and the
// counters add up.
func TestQuotaConcurrent(t *testing.T) {
	s, _ := newTestServer(t, t.TempDir())
	const burst = 5
	s.SetRateLimit(1, burst)
	frozen := time.Unix(9000, 0)
	s.limiter.now = func() time.Time { return frozen }

	const n = 40
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = request(t, s, "GET", "/api/stats", "", map[string]string{"X-API-Token": "swarm"}).Code
		}()
	}
	wg.Wait()
	ok, limited := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			limited++
		default:
			t.Fatalf("unexpected HTTP %d", c)
		}
	}
	if ok != burst || limited != n-burst {
		t.Fatalf("frozen clock admitted %d and limited %d, want %d and %d", ok, limited, burst, n-burst)
	}
	for _, c := range s.limiter.snapshot() {
		if c.Client == "token:swarm" && (c.Requests != n || c.Limited != int64(n-burst)) {
			t.Fatalf("snapshot %+v, want %d requests / %d limited", c, n, n-burst)
		}
	}
}

// postOptions widens the base sweep so a POSTed subset is a real
// restriction: two N_RH values instead of one.
func postOptions() exp.Options {
	o := testOptions()
	o.NRHs = []int{128, 256}
	return o
}

// TestPostParameterizedFigure: a POSTed subset request computes (and
// then serves) exactly the bytes `bhsweep -json` would produce for the
// equivalent flags, deduplicates by fingerprint, rejects non-subsets,
// and never mutates the server's base options.
func TestPostParameterizedFigure(t *testing.T) {
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner := exp.NewRunnerWithStore(postOptions(), store)
	s := New(runner, 2)
	t.Cleanup(s.Close)

	jsonHdr := map[string]string{"Content-Type": "application/json"}
	rec := request(t, s, "POST", "/api/figures/fig13", `{"nrhs":"128"}`, jsonHdr)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cold POST: HTTP %d: %s", rec.Code, rec.Body)
	}
	var ticket struct {
		Job JobStatus `json:"job"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ticket); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ticket.Job.Key, "@") {
		t.Fatalf("parameterized job key %q lacks a fingerprint suffix", ticket.Job.Key)
	}

	// The same request again, while cold, joins the same job.
	rec = request(t, s, "POST", "/api/figures/fig13", `{"nrhs":"128"}`, jsonHdr)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("duplicate POST: HTTP %d", rec.Code)
	}
	var dup struct {
		Job JobStatus `json:"job"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dup); err != nil {
		t.Fatal(err)
	}
	if dup.Job.ID != ticket.Job.ID {
		t.Fatalf("identical POSTs got jobs %q and %q — fingerprint dedup broken", ticket.Job.ID, dup.Job.ID)
	}

	if st := waitJobDone(t, s, ticket.Job.ID); st.State != JobDone {
		t.Fatalf("parameterized job finished as %q (%s)", st.State, st.Error)
	}

	// Warm POST serves the exact bytes the CLI would emit for the
	// equivalent flags over the same store.
	rec = request(t, s, "POST", "/api/figures/fig13", `{"nrhs":"128"}`, jsonHdr)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm POST: HTTP %d: %s", rec.Code, rec.Body)
	}
	derived, err := exp.OptionSpec{NRHs: "128"}.ApplyTo(runner.Options())
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := exp.ExperimentByName("13")
	tbl, err := ex.Run(exp.NewRunnerWithStore(derived, store))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rec.Body.String(), tbl.JSON(); got != want {
		t.Errorf("POST figure differs from bhsweep -json for the same subset:\n got: %s\nwant: %s", got, want)
	}

	// The base catalogue options are untouched by derived requests.
	if got := runner.Options().NRHs; len(got) != 2 || got[0] != 128 || got[1] != 256 {
		t.Fatalf("base options mutated by POST: NRHs = %v", got)
	}

	// Non-subsets and malformed bodies are 400s.
	for _, body := range []string{
		`{"nrhs":"512"}`,            // not in the base sweep
		`{"mechanisms":"graphene"}`, // not in the base mechanisms
		`{"bogus":1}`,               // unknown field
		`{"nrhs":`,                  // truncated JSON
	} {
		if rec := request(t, s, "POST", "/api/figures/fig13", body, jsonHdr); rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d, want 400", body, rec.Code)
		}
	}
	// An empty body means "the base figure" and is accepted.
	if rec := request(t, s, "POST", "/api/figures/fig13", "", jsonHdr); rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		t.Errorf("empty POST body: HTTP %d", rec.Code)
	}
}

// TestCrashRestartResumesTicket is the crash-restart acceptance test: a
// server killed mid-job leaves an open durable ticket; a new server over
// the same directory reattaches it, simulates only the missing points,
// and then serves bytes identical to a from-scratch run. Table 3 rides
// along since its work became points: when it simulated inside its
// renderer its job had no points to finish, Close waited out the whole
// render and nothing was left to resume.
func TestCrashRestartResumesTicket(t *testing.T) {
	for _, name := range []string{"13", "table3"} {
		t.Run(name, func(t *testing.T) { crashRestartResumesTicket(t, name) })
	}
}

func crashRestartResumesTicket(t *testing.T, name string) {
	ex, _ := exp.ExperimentByName(name)
	id := FigureID(name)
	dir := t.TempDir()
	store1, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runner1 := exp.NewRunnerWithStore(testOptions(), store1)
	runner1.SetJobs(1) // serialize points so the kill lands between them
	s1 := New(runner1, 2)
	points := len(runner1.PointsFor([]string{name}))
	if points < 2 {
		t.Fatalf("test needs a multi-point figure, %s has %d", id, points)
	}

	rec := get(t, s1, "/api/figures/"+id)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cold figure: HTTP %d", rec.Code)
	}
	var ticket struct {
		Job JobStatus `json:"job"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ticket); err != nil {
		t.Fatal(err)
	}
	if ticket.Job.Total != points {
		t.Fatalf("cold %s job counts %d points, want %d", id, ticket.Job.Total, points)
	}

	// Kill the server as soon as the first point lands.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st JobStatus
		if err := json.Unmarshal(get(t, s1, "/api/jobs/"+ticket.Job.ID).Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first point never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closing := time.Now()
	s1.Close()
	// Close waits for the point in flight and nothing else.
	if d := time.Since(closing); d > 30*time.Second {
		t.Errorf("Close mid-job took %v", d)
	}
	executed1 := runner1.Executed()

	// The ticket must still be open: a shutdown is not a failure.
	raw, ok := store1.GetRaw(ticketKeyPrefix + id)
	if !ok {
		t.Fatal("no durable ticket for the interrupted job")
	}
	var tr ticketRecord
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.State != TicketOpen {
		t.Fatalf("interrupted job's ticket is %q, want %q", tr.State, TicketOpen)
	}

	// A new server over the same directory resumes it.
	s2, runner2 := newTestServer(t, dir)
	reattached, err := s2.ReattachTickets()
	if err != nil {
		t.Fatal(err)
	}
	if reattached != 1 {
		t.Fatalf("reattached %d tickets, want 1", reattached)
	}
	// The resumed job carries the same key, so a GET either joins it
	// (202) or, once done, serves the figure.
	waitDeadline := time.Now().Add(2 * time.Minute)
	var body string
	for {
		rec := get(t, s2, "/api/figures/"+id)
		if rec.Code == http.StatusOK {
			body = rec.Body.String()
			break
		}
		if rec.Code != http.StatusAccepted {
			t.Fatalf("figure during resume: HTTP %d", rec.Code)
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("resumed job never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No point simulated twice across the two processes.
	if total := executed1 + runner2.Executed(); total != int64(points) {
		t.Fatalf("crash+resume simulated %d points total, want exactly %d (no re-simulation)",
			total, points)
	}

	// Byte-identical to an uninterrupted in-process run.
	ref := exp.NewRunner(testOptions())
	tbl, err := ex.Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if body != tbl.JSON() {
		t.Errorf("figure after crash+resume differs from an uninterrupted run:\n got: %s\nwant: %s", body, tbl.JSON())
	}

	// The resumed job settles its ticket.
	raw, ok = runner2.Store().GetRaw(ticketKeyPrefix + id)
	if !ok {
		t.Fatal("ticket vanished after resume")
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.State != TicketDone {
		t.Fatalf("resumed job's ticket is %q, want %q", tr.State, TicketDone)
	}
}
