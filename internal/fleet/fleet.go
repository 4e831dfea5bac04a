// Package fleet turns bhserve into a distributed sweep coordinator: it
// enumerates a sweep's configuration points once, leases them to remote
// bhsweep workers over a small JSON/HTTP protocol, and appends validated
// results to the authoritative store — the jump from one box sharing a
// cache directory to as many boxes as can reach the coordinator.
//
// Protocol (all bodies JSON; non-2xx answers carry {"error": ...}):
//
//	POST /api/fleet/hello      version handshake -> the sweep's exp.Options
//	POST /api/fleet/lease      next point + lease token with TTL (or wait/done)
//	POST /api/fleet/heartbeat  keep a lease alive (410 when it was stolen)
//	POST /api/fleet/result     submit a finished point (key + schema validated)
//	POST /api/fleet/release    hand a lease back unfinished (worker shutdown)
//	GET  /api/fleet            coordinator status snapshot
//	GET  /api/fleet/events     fleet-wide progress stream (SSE)
//
// The coordinator is a set of HTTP handlers over one exp.Queue — the
// same point queue a local sweep and a bhserve figure job drain — and a
// worker is the same consumer loop (exp.Runner.Consume) with an HTTP
// client in place of the in-process queue. A lease is backed by the
// point's store claim and each worker heartbeat refreshes the claim
// file's mtime, so local sweeps sharing the coordinator's cache
// directory coordinate with the fleet exactly as they do with each
// other, and a worker that goes silent lets its lease — and the claim
// under it — expire, so the point is stolen and re-issued rather than
// stranded.
//
// The protocol authenticates nothing: like the rest of bhserve it is
// built for a trusted lab network, not the open internet.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
)

// Status is the /api/fleet snapshot: the sweep's identity plus its
// queue's counters and per-worker rows.
type Status struct {
	Experiments []string `json:"experiments"`       // the sweep's experiment names
	Sampled     bool     `json:"sampled,omitempty"` // the sweep runs interval-sampled (workers inherit via hello)
	exp.QueueStatus
}

// WorkerInfo is one worker's row in the status snapshot.
type WorkerInfo = exp.WorkerInfo

// Coordinator owns a fleet sweep: the point queue its workers lease
// from, and the wire protocol in front of it. Construct with
// NewCoordinator, mount with Register, and Close on shutdown to release
// held claims.
type Coordinator struct {
	runner  *exp.Runner
	names   []string
	optJSON []byte // the runner's exp.Options, encoded once
	queue   *exp.Queue
}

// NewCoordinator queues the named experiments' points through the
// runner (deduplicated by store key, exactly like a local Prefetch;
// points the store already holds finish as cached at once). ttl is the
// lease lifetime (<= 0 means DefaultLeaseTTL). The runner's store is
// the authoritative fleet store; trace-backed options resolve their
// content hashes here, so construction fails loudly on an unreadable
// trace.
func NewCoordinator(runner *exp.Runner, names []string, ttl time.Duration) (*Coordinator, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	optJSON, err := json.Marshal(runner.Options())
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding options: %w", err)
	}
	// One index sync picks up records appended by other processes since
	// the store opened, so the queue's cached pre-marking sees them.
	if err := runner.Store().SyncIndex(); err != nil {
		return nil, fmt.Errorf("fleet: syncing store index: %w", err)
	}
	queue, err := exp.NewQueue(runner, runner.PointsFor(names), ttl, nil)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return &Coordinator{
		runner:  runner,
		names:   append([]string(nil), names...),
		optJSON: optJSON,
		queue:   queue,
	}, nil
}

// Register mounts the fleet routes on the mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /api/fleet/hello", c.handleHello)
	mux.HandleFunc("POST /api/fleet/lease", c.handleLease)
	mux.HandleFunc("POST /api/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /api/fleet/result", c.handleResult)
	mux.HandleFunc("POST /api/fleet/release", c.handleRelease)
	mux.HandleFunc("GET /api/fleet", c.handleStatus)
	mux.HandleFunc("GET /api/fleet/events", c.handleEvents)
}

// Experiments returns the sweep's experiment names.
func (c *Coordinator) Experiments() []string { return append([]string(nil), c.names...) }

// Done reports whether every point is in the authoritative store.
func (c *Coordinator) Done() bool {
	select {
	case <-c.queue.Done():
		return true
	default:
		return false
	}
}

// Close releases every claim held for live leases and stops granting
// new ones (workers still polling are told to wait). In-flight workers
// lose their leases (their submissions earn 410) but their local stores
// stay warm, so a restarted coordinator re-collects the work cheaply.
func (c *Coordinator) Close() { c.queue.Close() }

// Status snapshots the coordinator for the status endpoint and the
// index page's fleet panel.
func (c *Coordinator) Status() Status {
	return Status{
		Experiments: c.Experiments(),
		Sampled:     c.runner.Options().Base.Sampling.Enabled,
		QueueStatus: c.queue.Status(),
	}
}

// decode reads a request body into a T, answering 400 itself on
// failure.
func decode[T any](w http.ResponseWriter, r *http.Request, what string) (req T, ok bool) {
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		exp.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding %s: %v", what, err))
		return req, false
	}
	return req, true
}

// answer acknowledges a queue call, mapping its error to the protocol's
// status codes: 410 for a lost lease (the worker drops the point), 400
// for a rejected submission, 500 otherwise.
func answer(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		exp.WriteJSON(w, http.StatusOK, okResponse{OK: true})
	case errors.Is(err, exp.ErrLeaseLost):
		exp.WriteError(w, http.StatusGone, err)
	case errors.Is(err, exp.ErrRejected):
		exp.WriteError(w, http.StatusBadRequest, err)
	default:
		exp.WriteError(w, http.StatusInternalServerError, err)
	}
}

func (c *Coordinator) handleHello(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[helloRequest](w, r, "hello")
	if !ok {
		return
	}
	if req.Protocol != ProtocolVersion {
		exp.WriteError(w, http.StatusConflict, fmt.Errorf(
			"fleet protocol mismatch: worker speaks v%d, coordinator v%d — rebuild the worker from the coordinator's source revision",
			req.Protocol, ProtocolVersion))
		return
	}
	if req.Schema != results.SchemaVersion {
		exp.WriteError(w, http.StatusConflict, fmt.Errorf(
			"results schema mismatch: worker writes schema %d, coordinator stores schema %d — rebuild the worker from the coordinator's source revision",
			req.Schema, results.SchemaVersion))
		return
	}
	exp.WriteJSON(w, http.StatusOK, helloResponse{
		Protocol: ProtocolVersion,
		Schema:   results.SchemaVersion,
		Options:  c.optJSON,
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	req, ok := decode[leaseRequest](w, r, "lease request")
	if !ok {
		return
	}
	if req.Worker == "" {
		req.Worker = "anonymous"
	}
	lease, err := c.queue.Lease(r.Context(), req.Worker)
	if err != nil {
		answer(w, err)
		return
	}
	exp.WriteJSON(w, http.StatusOK, lease)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if req, ok := decode[tokenRequest](w, r, "heartbeat"); ok {
		answer(w, c.queue.Heartbeat(r.Context(), req.Token))
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	if req, ok := decode[resultRequest](w, r, "result"); ok {
		answer(w, c.queue.Complete(r.Context(), req.Token, req.Completion))
	}
}

func (c *Coordinator) handleRelease(w http.ResponseWriter, r *http.Request) {
	if req, ok := decode[tokenRequest](w, r, "release"); ok {
		c.queue.Release(req.Token)
		answer(w, nil)
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	exp.WriteJSON(w, http.StatusOK, c.Status())
}

// handleEvents streams fleet-wide progress as Server-Sent Events, ending
// with a "done" event carrying the final status once the last point
// lands.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	exp.StreamEvents(w, r, c.queue, c.queue.Done(), func() any { return c.Status() })
}
