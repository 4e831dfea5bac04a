package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/fleet"
	"breakhammer/internal/results"
)

// TestFrontEndsAgree runs one grid through each front-end of the point
// queue — a local Prefetch, a cold bhserve figure job, and a fleet
// coordinator with two workers — each over its own store with the same
// one point pre-warmed. All three must render byte-identical tables,
// and each front-end's event stream must carry exactly one
// point-started and one point-finished per deduplicated key, the
// pre-warmed (cached) point included.
func TestFrontEndsAgree(t *testing.T) {
	opts := testOptions()
	opts.Mechanisms = []string{"rfm", "para"}
	const name = "13"
	ex, _ := exp.ExperimentByName(name)
	ref := exp.NewRunner(opts)
	points := ref.PointsFor([]string{name})
	keys := map[string]bool{}
	for _, p := range points {
		key, err := ref.PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}

	// newRunner opens a front-end's store with the first point warm.
	newRunner := func() *exp.Runner {
		store, err := results.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		r := exp.NewRunnerWithStore(opts, store)
		if err := r.PrefetchContext(context.Background(), points[:1], func(exp.Event) {}); err != nil {
			t.Fatal(err)
		}
		return r
	}
	// checkStream asserts the one-started-one-finished contract.
	checkStream := func(frontEnd string, events []exp.Event) {
		t.Helper()
		started, finished, cached := map[string]int{}, map[string]int{}, 0
		for _, e := range events {
			key, err := ref.PointKey(e.Point)
			if err != nil {
				t.Fatal(err)
			}
			switch e.Type {
			case exp.PointStarted:
				started[key]++
			case exp.PointFinished:
				finished[key]++
				if e.Cached {
					cached++
				}
			}
		}
		for key := range keys {
			if started[key] != 1 || finished[key] != 1 {
				t.Errorf("%s: point %.8s started %d and finished %d times, want 1 and 1",
					frontEnd, key, started[key], finished[key])
			}
		}
		if len(started) != len(keys) || len(finished) != len(keys) {
			t.Errorf("%s: stream names %d started / %d finished keys, want %d", frontEnd, len(started), len(finished), len(keys))
		}
		if cached != 1 {
			t.Errorf("%s: %d points finished as cached, want the 1 pre-warmed", frontEnd, cached)
		}
	}
	// sseEvents fetches an SSE stream to its end and decodes the point
	// events.
	sseEvents := func(url string) []exp.Event {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := readSSE(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var events []exp.Event
		for _, ev := range raw {
			if ev.name == "done" {
				continue
			}
			var e exp.Event
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Fatalf("bad event payload %q: %v", ev.data, err)
			}
			events = append(events, e)
		}
		return events
	}

	// Front-end 1: a local sweep.
	local := newRunner()
	var localEvents []exp.Event
	if err := local.PrefetchContext(context.Background(), points, func(e exp.Event) { localEvents = append(localEvents, e) }); err != nil {
		t.Fatal(err)
	}
	checkStream("prefetch", localEvents)
	tbl, err := ex.Run(local)
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.JSON()

	// Front-end 2: a cold figure job.
	s := New(newRunner(), 1)
	defer s.Close()
	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()
	resp, err := http.Get(httpSrv.URL + "/api/figures/fig" + name)
	if err != nil {
		t.Fatal(err)
	}
	var ticket struct {
		EventsURL string `json:"events_url"`
		FigureURL string `json:"figure_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ticket)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold figure: HTTP %d, %v", resp.StatusCode, err)
	}
	checkStream("serve", sseEvents(httpSrv.URL+ticket.EventsURL))
	// The stream's terminal event comes after the render: the figure is a 200 now.
	rec := get(t, s, ticket.FigureURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("figure after the job's stream ended: HTTP %d", rec.Code)
	}
	if got := rec.Body.String(); got != want {
		t.Errorf("served figure diverges from the local sweep:\nserve: %s\nlocal: %s", got, want)
	}

	// Front-end 3: a fleet of two workers.
	coordRunner := newRunner()
	prewarmed := coordRunner.Executed()
	coord, err := fleet.NewCoordinator(coordRunner, []string{name}, fleet.DefaultLeaseTTL)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Register(mux)
	fleetSrv := httptest.NewServer(mux)
	defer fleetSrv.Close()
	var wg sync.WaitGroup
	for _, worker := range []string{"w1", "w2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := fleet.RunWorker(context.Background(), fleet.WorkerOptions{
				URL: fleetSrv.URL, Name: worker, BaseBackoff: 10 * time.Millisecond})
			if err != nil {
				t.Errorf("worker %s: %v", worker, err)
			}
		}()
	}
	checkStream("fleet", sseEvents(fleetSrv.URL+"/api/fleet/events"))
	wg.Wait()
	if got := coordRunner.Executed() - prewarmed; got != 0 {
		t.Errorf("the coordinator simulated %d points itself", got)
	}
	tbl, err = ex.Run(coordRunner)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.JSON(); got != want {
		t.Errorf("fleet figure diverges from the local sweep:\nfleet: %s\nlocal: %s", got, want)
	}
}
