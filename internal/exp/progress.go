package exp

import "time"

// EventType discriminates the typed progress events streamed by
// Prefetch.
type EventType string

// The progress event types. Every point produces exactly one
// PointStarted and, unless the sweep aborts, exactly one PointFinished.
const (
	// PointStarted fires when a worker picks the point up, before the
	// store lookup; Done counts previously finished points.
	PointStarted EventType = "point-started"
	// PointFinished fires when the point's results are in the store
	// (served from cache or freshly simulated); Done includes the point.
	PointFinished EventType = "point-finished"
)

// Event is one typed progress notification from a sweep. Events are
// emitted serialized and in order (the pool holds its lock while
// notifying, so callbacks must be cheap); they marshal directly to JSON
// and are the payload of bhserve's Server-Sent Events stream.
type Event struct {
	Type  EventType `json:"type"`
	Done  int       `json:"done"`  // points finished so far (includes this one for PointFinished)
	Total int       `json:"total"` // deduplicated points in the sweep
	Point Point     `json:"point"`
	Label string    `json:"label"` // Point.String(), for display
	// Cached reports whether the point was served from the store without
	// simulating (PointFinished only).
	Cached bool `json:"cached,omitempty"`
	// ElapsedNS is the point's wall-clock time in nanoseconds
	// (PointFinished only; ~0 for cached points).
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
	// EstimateNS projects the remaining sweep wall-clock in nanoseconds
	// from recorded per-point timings; 0 when nothing remains or no
	// timing data exists yet.
	EstimateNS int64 `json:"eta_ns,omitempty"`
	// Error carries the point's failure message (PointFinished only;
	// empty for successful points). A failed point still counts toward
	// Done — the sweep presses on and reports the aggregate at the end.
	Error string `json:"error,omitempty"`
	// Sampled reports that the point simulates under interval sampling
	// (the sweep's base configuration has sim.Config.Sampling enabled, or
	// the point is a sampling-validation twin pinned to it): its metrics
	// are estimates with confidence bands, not exact values.
	Sampled bool `json:"sampled,omitempty"`
}

// Elapsed returns the point's wall-clock time as a Duration.
func (e Event) Elapsed() time.Duration { return time.Duration(e.ElapsedNS) }

// ETA returns the projected remaining sweep wall-clock as a Duration.
func (e Event) ETA() time.Duration { return time.Duration(e.EstimateNS) }

// ProgressFunc receives the typed event stream of a Prefetch. Calls are
// serialized and ordered; keep the callback cheap (it runs under the
// worker pool's lock).
type ProgressFunc func(Event)
