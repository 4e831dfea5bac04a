// Package serve is the HTTP experiment service in front of the sweep
// orchestrator: it serves any paper figure straight from the results
// store when every record it needs is cached, computes missing figures
// in background jobs (deduplicated across clients, bounded by a worker
// pool, cancelled on shutdown), and streams typed per-point progress
// over Server-Sent Events. The wire format for figures is
// exp.Table.JSON(), byte-identical to bhsweep's -json output, so HTTP
// clients and CLI sweeps interoperate on one representation.
//
// Routes:
//
//	GET  /                          embedded HTML index (coverage + live jobs)
//	GET  /api/figures               paginated catalogue with coverage and job state
//	GET  /api/figures/{id}          the figure (200) or a job ticket (202)
//	POST /api/figures/{id}          same, with per-request sweep subsets in the body
//	GET  /api/figures/{id}/coverage paginated per-point cache status
//	GET  /api/jobs                  every job this server started
//	GET  /api/jobs/{id}             one job's status
//	GET  /api/jobs/{id}/events      the job's progress stream (SSE)
//	GET  /api/stats                 per-client accounting + store counters
//
// Every route runs behind per-client accounting and (when configured
// with SetRateLimit) token-bucket rate limiting; over-limit requests
// answer 429 with a Retry-After header. Cold figure jobs persist
// durable tickets in the results store, so a server killed mid-job
// resumes the job on restart, simulating only points the store does
// not already hold (see tickets.go).
//
// With EnableFleet the server additionally coordinates a distributed
// sweep fleet under /api/fleet (see breakhammer/internal/fleet for the
// lease protocol); the index page then shows fleet-wide progress too.
package serve

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"breakhammer/internal/exp"
	"breakhammer/internal/fleet"
	"breakhammer/internal/results"
)

//go:embed index.html
var indexHTML []byte

// Pagination defaults and caps per endpoint.
const (
	figuresPageSize    = 50
	figuresPageMax     = 100
	coveragePageSize   = 100
	coveragePageMax    = 500
	maxDerivedRunners  = 64 // parameterized-request runner cache bound
	maxFigureBodyBytes = 1 << 16
)

// Server wires the experiment runner and job manager into an
// http.Handler. Construct with New; Close cancels background jobs.
// The Set* methods configure the hardening knobs (rate limit, logging)
// and must be called before the server starts listening.
type Server struct {
	runner  *exp.Runner
	mgr     *Manager
	mux     *http.ServeMux
	handler http.Handler
	limiter *limiter
	fleet   *fleet.Coordinator // nil unless EnableFleet was called

	logf func(format string, args ...any)

	derivedMu sync.Mutex
	derived   map[string]*exp.Runner // request fingerprint -> derived runner
}

// New builds a server over the runner, computing at most figureWorkers
// figures concurrently in the background.
func New(runner *exp.Runner, figureWorkers int) *Server {
	s := &Server{
		runner:  runner,
		mgr:     NewManager(runner, figureWorkers),
		limiter: newLimiter(),
		logf:    func(string, ...any) {},
		derived: make(map[string]*exp.Runner),
	}
	s.mgr.onFinish = s.finishTicket
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /api/figures", s.handleFigures)
	mux.HandleFunc("GET /api/figures/{id}", s.handleFigure)
	mux.HandleFunc("POST /api/figures/{id}", s.handleFigurePost)
	mux.HandleFunc("GET /api/figures/{id}/coverage", s.handleFigureCoverage)
	mux.HandleFunc("GET /api/jobs", s.handleJobs)
	mux.HandleFunc("GET /api/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	s.mux = mux
	s.handler = s.limiter.withAccounting(mux)
	return s
}

// Handler returns the server's route table wrapped in the accounting
// and rate-limit middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// SetRateLimit enables per-client token-bucket rate limiting: each
// client refills rate requests per second up to a bucket of burst.
// rate <= 0 (the default) disables limiting; accounting always runs.
func (s *Server) SetRateLimit(rate float64, burst int) { s.limiter.setLimit(rate, burst) }

// SetLogf installs a logger for background activity (ticket writes,
// job completion); the default discards.
func (s *Server) SetLogf(f func(format string, args ...any)) {
	if f == nil {
		f = func(string, ...any) {}
	}
	s.logf = f
}

// EnableFleet mounts the fleet coordinator's work-queue routes
// (/api/fleet/...) on the server and ties the coordinator's lifecycle
// to the server's Close. Call before the server starts listening; the
// index page detects the routes and shows fleet-wide progress. The
// coordinator shares the server's runner and store, so figure jobs and
// fleet workers coordinate through the same claims and a figure request
// for a fleet-warmed experiment serves without simulating.
func (s *Server) EnableFleet(c *fleet.Coordinator) {
	s.fleet = c
	c.Register(s.mux)
}

// Close cancels every background job, releases any fleet leases, and
// waits for everything to stop.
func (s *Server) Close() {
	s.mgr.Close()
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// FigureID maps an experiment name to its URL id: purely numeric names
// gain a "fig" prefix ("8" -> "fig8"); the rest (table3, sec5, ...) are
// their own ids.
func FigureID(name string) string {
	if name != "" && name[0] >= '0' && name[0] <= '9' {
		return "fig" + name
	}
	return name
}

// experimentName inverts FigureID, tolerating both spellings ("fig8"
// and "8" address the same figure).
func experimentName(id string) string {
	if rest, ok := strings.CutPrefix(id, "fig"); ok && rest != "" && rest[0] >= '0' && rest[0] <= '9' {
		return rest
	}
	return id
}

// figureInfo is one /api/figures catalogue entry.
type figureInfo struct {
	ID    string `json:"id"`
	Name  string `json:"name"` // bhsweep -figs name
	Title string `json:"title"`
	// Cached/Total is the store coverage: records present vs records the
	// figure reads. Static figures need none and report 0/0.
	Cached int  `json:"cached"`
	Total  int  `json:"total"`
	Ready  bool `json:"ready"` // fully covered: a GET serves without simulating
	// Job is the live background job computing this figure, if any.
	Job *JobStatus `json:"job,omitempty"`
}

// jobTicket is the 202 response body for a figure that is still
// computing.
type jobTicket struct {
	Job       JobStatus `json:"job"`
	StatusURL string    `json:"status_url"`
	EventsURL string    `json:"events_url"`
	FigureURL string    `json:"figure_url"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(indexHTML)
}

func (s *Server) figureInfo(ex exp.Experiment) (figureInfo, error) {
	cached, total, err := s.runner.Coverage(ex.Name)
	if err != nil {
		return figureInfo{}, err
	}
	id := FigureID(ex.Name)
	info := figureInfo{
		ID:     id,
		Name:   ex.Name,
		Title:  ex.Title,
		Cached: cached,
		Total:  total,
		Ready:  cached == total,
	}
	if j, ok := s.mgr.ActiveFor(id); ok {
		st := j.Status()
		info.Job = &st
	}
	return info, nil
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	number, size, err := pageParams(r, figuresPageSize, figuresPageMax)
	if err != nil {
		exp.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The catalogue order is exp.Experiments()'s presentation order —
	// stable across requests, so concatenated pages reassemble the full
	// set without duplicates or gaps.
	var list []figureInfo
	for _, ex := range exp.Experiments() {
		info, err := s.figureInfo(ex)
		if err != nil {
			exp.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		list = append(list, info)
	}
	exp.WriteJSON(w, http.StatusOK, paginate(list, number, size))
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ex, ok := exp.ExperimentByName(experimentName(id))
	if !ok {
		exp.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown figure %q", id))
		return
	}
	s.serveFigure(w, ex, s.runner, FigureID(ex.Name), nil)
}

// handleFigurePost serves a figure computed under per-request sweep
// subsets: the JSON body narrows the server's base options (N_RH
// values, mechanisms, strategies, defenses — the same comma-separated
// spellings as the CLI flags), and the request is keyed by a
// fingerprint of the resolved subsets so identical requests share one
// job and one set of cached tables. An empty body is exactly the GET.
func (s *Server) handleFigurePost(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ex, ok := exp.ExperimentByName(experimentName(id))
	if !ok {
		exp.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown figure %q", id))
		return
	}
	var req figureRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFigureBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		exp.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	runner, fp, err := s.runnerFor(req)
	if err != nil {
		exp.WriteError(w, http.StatusBadRequest, err)
		return
	}
	key := FigureID(ex.Name)
	var params *figureRequest
	if fp != "" {
		key += "@" + fp
		params = &req
	}
	s.serveFigure(w, ex, runner, key, params)
}

// serveFigure is the shared figure path: a fully covered figure renders
// straight from the store — zero simulations, the bhsweep -json wire
// format, byte-identical regardless of which route asked — and a cold
// one opens a durable ticket, ensures the background job, and answers
// 202 with the job ticket.
func (s *Server) serveFigure(w http.ResponseWriter, ex exp.Experiment, runner *exp.Runner, key string, params *figureRequest) {
	cached, total, err := runner.Coverage(ex.Name)
	if err != nil {
		exp.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if cached == total {
		tbl, err := ex.Run(runner)
		if err != nil {
			exp.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, tbl.JSON())
		return
	}
	if _, active := s.mgr.ActiveFor(key); !active {
		s.openTicket(key, ex, params)
	}
	j := s.mgr.Ensure(key, ex, runner)
	exp.WriteJSON(w, http.StatusAccepted, jobTicket{
		Job:       j.Status(),
		StatusURL: "/api/jobs/" + j.ID(),
		EventsURL: "/api/jobs/" + j.ID() + "/events",
		FigureURL: "/api/figures/" + FigureID(ex.Name),
	})
}

// handleFigureCoverage lists one figure's points with per-point cache
// status, paginated. The order is the sweep's stable enumeration
// order, so pages concatenate into the full point list.
func (s *Server) handleFigureCoverage(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ex, ok := exp.ExperimentByName(experimentName(id))
	if !ok {
		exp.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown figure %q", id))
		return
	}
	number, size, err := pageParams(r, coveragePageSize, coveragePageMax)
	if err != nil {
		exp.WriteError(w, http.StatusBadRequest, err)
		return
	}
	pts, err := s.runner.PointCoverageFor(ex.Name)
	if err != nil {
		exp.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	exp.WriteJSON(w, http.StatusOK, paginate(pts, number, size))
}

// statsResponse is the GET /api/stats body.
type statsResponse struct {
	Store   results.Stats `json:"store"`
	Jobs    int           `json:"jobs"` // jobs currently retained (live + recent)
	Clients []ClientStats `json:"clients"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	exp.WriteJSON(w, http.StatusOK, statsResponse{
		Store:   s.runner.Store().Stats(),
		Jobs:    len(s.mgr.Jobs()),
		Clients: s.limiter.snapshot(),
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	list := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		list = append(list, j.Status())
	}
	exp.WriteJSON(w, http.StatusOK, list)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		exp.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	exp.WriteJSON(w, http.StatusOK, j.Status())
}

// handleJobEvents streams a job's typed progress as Server-Sent Events:
// one "point-started"/"point-finished" event per point — the full
// history replays first, so every subscriber sees every point exactly
// once — and, after the render, a final "done" event carrying the job's
// terminal status.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		exp.WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	exp.StreamEvents(w, r, j.queue, j.done, func() any { return j.Status() })
}
