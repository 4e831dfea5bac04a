package exp

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"breakhammer/internal/results"
	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
)

// claimPoll is the longest a consumer told to wait sleeps before asking
// again. Nothing wakes a remote worker or a point pinned by another
// queue's claim when the point finishes or its lease is stolen, so the
// wait is short whatever the TTL.
const claimPoll = 200 * time.Millisecond

// ErrLeaseLost answers a token the queue no longer knows — expired and
// re-issued, released, or never issued (HTTP 410 in the fleet). The
// consumer drops the point.
var ErrLeaseLost = errors.New("lease expired or unknown; the point may have been re-issued")

// ErrRejected wraps a completion refused before it touched the store:
// wrong schema, wrong key, or no results (HTTP 400 in the fleet).
var ErrRejected = errors.New("submission rejected")

// Lease answers a lease request, in process and on the fleet's wire, in
// one of three shapes: a grant (Token set), a wait (ask again after
// RetryNS), or done (every point is finished; stop asking).
type Lease struct {
	Done    bool   `json:"done,omitempty"`
	Wait    bool   `json:"wait,omitempty"`
	RetryNS int64  `json:"retry_ns,omitempty"`
	Token   string `json:"token,omitempty"`  // proves ownership to heartbeat/complete
	Point   Point  `json:"point,omitempty"`  // the point to simulate
	Key     string `json:"key,omitempty"`    // the queue's store key for the point
	TTLNS   int64  `json:"ttl_ns,omitempty"` // heartbeat at TTL/4 or lose the lease
}

// Completion is a finished point as its consumer submits it.
type Completion struct {
	Key       string          `json:"key"`    // consumer's independently derived store key
	Schema    int             `json:"schema"` // consumer's results.SchemaVersion
	Cached    bool            `json:"cached"` // served from the consumer's warm store
	ElapsedNS int64           `json:"elapsed_ns"`
	Results   []sim.MixResult `json:"results"`
}

// WorkerInfo is one named consumer's row in a queue status snapshot.
type WorkerInfo struct {
	Name       string `json:"name"`
	InFlight   int    `json:"in_flight"` // leases currently held
	Completed  int    `json:"completed"` // completions accepted
	Simulated  int    `json:"simulated"` // completed minus warm-store hits
	Cached     int    `json:"cached"`    // served from the consumer's warm store
	LastSeenNS int64  `json:"last_seen_ns"`
}

// QueueStatus snapshots a queue's counters. Its JSON form is the body of
// the fleet's status endpoint; the untagged rest serves local callers.
type QueueStatus struct {
	Total      int          `json:"total"` // deduplicated points
	Done       int          `json:"done"`  // finished, failed ones included
	Leased     int          `json:"leased"`
	Pending    int          `json:"pending"`
	Cached     int          `json:"cached"` // finished without simulating
	Steals     int          `json:"steals"` // expired leases re-issued
	EstimateNS int64        `json:"eta_ns,omitempty"`
	Workers    []WorkerInfo `json:"workers"`
	Events     int          `json:"-"` // events emitted so far
	Failures   []PointError `json:"-"` // failed points, in completion order
}

// queueItem is one deduplicated point: pending until leased, leased
// until finished (done or failed) or until the lease expires or is
// released, which returns it to pending.
type queueItem struct {
	p        Point
	key      string
	finished bool
	lease    *lease // non-nil while leased out
}

// workerRow is a named consumer's status row plus when it last called.
type workerRow struct {
	WorkerInfo
	seen time.Time
}

type lease struct {
	token, worker   string
	granted, expiry time.Time
	claim           *results.Claim // the store claim backing the lease
}

// Queue schedules one deduplicated list of points onto consumers: a
// local sweep's pool (Runner.Drain), a bhserve figure job and the
// fleet's remote workers all lease from one. A lease is a token with a
// TTL backed by the point's store claim, so queues exclude each other
// through the cache directory. Expiry is lazy: every call first
// reclaims leases whose holder missed the TTL (claim released, steal
// counted, point pending again), so no janitor goroutine runs. Every
// point produces exactly one PointStarted and one PointFinished in one
// ordered event log that subscribers replay and then follow live.
type Queue struct {
	runner   *Runner
	ttl      time.Duration
	now      func() time.Time // the lease clock; tests substitute a fake
	progress ProgressFunc     // synchronous observer of every event; may be nil

	mu       sync.Mutex
	items    []*queueItem
	byToken  map[string]*queueItem // the leased items
	workers  map[string]*workerRow
	est      stats.RunningMean // per-point seconds, seeded from recorded timings
	finished int
	cached   int
	steals   int
	failures []PointError
	events   []Event
	subs     map[chan Event]bool
	done     chan struct{} // closed when every point is finished
	closed   bool
}

// NewQueue keys the points through the runner (deduplicating by store
// key), finishes those the store already holds as cached — from its
// in-memory table alone: no shard read, no claim file — and seeds the
// ETA from recorded timings, so a resumed sweep projects before its
// first simulation ends. ttl is how long a consumer may stay silent
// before its point is re-issued. progress, when non-nil, observes every
// event in order under the queue's lock, so it must be cheap. An
// unreadable trace fails construction loudly.
func NewQueue(r *Runner, points []Point, ttl time.Duration, progress ProgressFunc) (*Queue, error) {
	keyed, err := r.keyPoints(points)
	if err != nil {
		return nil, err
	}
	q := &Queue{runner: r, ttl: ttl, now: time.Now, progress: progress,
		byToken: map[string]*queueItem{}, workers: map[string]*workerRow{},
		subs: map[chan Event]bool{}, done: make(chan struct{})}
	for i, key := range keyed.keys {
		if d, ok := r.store.Elapsed(key); ok {
			q.est.Add(d.Seconds())
		}
		q.items = append(q.items, &queueItem{p: keyed.points[i], key: key})
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, it := range q.items {
		if r.store.Has(it.key) {
			q.finishLocked(it, true, nil)
		}
	}
	if len(q.items) == 0 {
		close(q.done)
	}
	return q, nil
}

// Done is closed once every point is done or failed.
func (q *Queue) Done() <-chan struct{} { return q.done }

// Close releases the claim under every live lease (their holders find
// their tokens lost) and ends every subscription. A closed queue grants
// nothing: lease requests are told to wait, and take no claim.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	for _, it := range q.byToken {
		q.dropLeaseLocked(it)
	}
	for ch := range q.subs {
		delete(q.subs, ch)
		close(ch)
	}
}

// Lease grants the next leasable point to worker ("" for an unnamed
// local consumer) or says why not, without blocking: Wait while
// everything left is leased out or pinned by foreign claims, Done when
// nothing is left. Points another sweep finished since the last call
// finish as cached on the way, claim-free.
func (q *Queue) Lease(_ context.Context, worker string) (Lease, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// Come back within one heartbeat interval, and within claimPoll: early
	// enough to pick up a stolen lease promptly, and to learn promptly that
	// a peer finished the last point.
	retry := min(q.ttl/4, claimPoll)
	if q.closed {
		return Lease{Wait: true, RetryNS: int64(retry)}, nil
	}
	now := q.expireLocked()
	ws := q.touchLocked(worker, now)
	store := q.runner.store
	// One incremental sync observes what other processes appended since
	// the last call (unchanged shards cost a stat and zero reads), so the
	// per-point check is a map lookup. Best-effort: a sync error degrades
	// to the re-probe under the claim.
	_ = store.SyncIndex()
	for _, it := range q.items {
		if it.finished || it.lease != nil {
			continue
		}
		if store.Has(it.key) {
			q.finishLocked(it, true, nil)
			continue
		}
		claim, err := store.TryClaim(it.key, q.ttl)
		if err != nil {
			return Lease{}, err
		}
		if claim == nil {
			// Someone else is computing it: leave it pending (the sync
			// collects it once their record lands), offer the next.
			continue
		}
		// The claim was granted after the lookup missed, but the previous
		// holder may have released between the two; one disk re-probe
		// keeps the point from simulating twice.
		if _, ok := store.Reload(it.key); ok {
			claim.Release()
			q.finishLocked(it, true, nil)
			continue
		}
		it.lease = &lease{token: newToken(), worker: worker, granted: now, expiry: now.Add(q.ttl), claim: claim}
		q.byToken[it.lease.token] = it
		if ws != nil {
			ws.InFlight++
		}
		q.emitLocked(Event{Type: PointStarted, Point: it.p, Label: it.label()})
		return Lease{Token: it.lease.token, Point: it.p, Key: it.key, TTLNS: int64(q.ttl)}, nil
	}
	if q.finished == len(q.items) {
		return Lease{Done: true}, nil
	}
	return Lease{Wait: true, RetryNS: int64(retry)}, nil
}

// Heartbeat extends a lease by one TTL and relays the liveness to the
// claim file, for co-workers sharing the cache directory.
func (q *Queue) Heartbeat(_ context.Context, token string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.expireLocked()
	it, ok := q.byToken[token]
	if !ok {
		return ErrLeaseLost
	}
	it.lease.expiry = now.Add(q.ttl)
	it.lease.claim.Heartbeat()
	q.touchLocked(it.lease.worker, now)
	return nil
}

// Complete finishes a leased point. The submission is validated before
// it can touch the store: the consumer's schema and independently
// derived key must match the queue's own — a mismatch means diverged
// code or trace content edited mid-lease — and the results non-empty; a
// rejection leaves the lease intact. The record is appended only if the
// store lacks it: an in-process consumer already persisted it.
func (q *Queue) Complete(_ context.Context, token string, c Completion) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.expireLocked()
	it, ok := q.byToken[token]
	switch {
	case !ok:
		return ErrLeaseLost
	case c.Schema != results.SchemaVersion:
		return fmt.Errorf("%w: results schema mismatch: consumer submitted schema %d, the store holds schema %d",
			ErrRejected, c.Schema, results.SchemaVersion)
	case c.Key != it.key:
		return fmt.Errorf("%w: store key mismatch for %v: consumer derived %.12s, the queue expects %.12s (diverged options, code revision, or trace content)",
			ErrRejected, it.p, c.Key, it.key)
	case len(c.Results) == 0:
		return fmt.Errorf("%w: empty result set for %v", ErrRejected, it.p)
	}
	timed := !c.Cached && c.ElapsedNS > 0
	if store := q.runner.store; !store.Has(it.key) {
		if err := store.Put(it.key, c.Results); err != nil {
			return err
		}
		if timed {
			if err := store.RecordElapsed(it.key, time.Duration(c.ElapsedNS)); err != nil {
				return err
			}
		}
	}
	if timed {
		q.est.Add(time.Duration(c.ElapsedNS).Seconds())
	}
	if ws := q.touchLocked(it.lease.worker, now); ws != nil {
		ws.Completed++
		if c.Cached {
			ws.Cached++
		} else {
			ws.Simulated++
		}
	}
	q.finishLocked(it, c.Cached, nil)
	return nil
}

// Fail finishes a leased point as failed: it still counts toward Done,
// its PointFinished carries the error, and the queue presses on. A lost
// token is not an error — the point's new holder reports its outcome.
func (q *Queue) Fail(_ context.Context, token string, cause error) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	if it, ok := q.byToken[token]; ok {
		q.finishLocked(it, false, cause)
	}
	return nil
}

// Release hands a lease back unfinished: the point is pending again,
// without counting as a steal. An unknown or expired token is a success —
// the caller only wants the point re-queued, and it already is.
func (q *Queue) Release(token string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if it, ok := q.byToken[token]; ok {
		q.dropLeaseLocked(it)
	}
}

// Status snapshots the counters, the per-worker rows (sorted by name)
// and the ETA.
func (q *Queue) Status() QueueStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.expireLocked()
	st := QueueStatus{
		Total:      len(q.items),
		Done:       q.finished,
		Leased:     len(q.byToken),
		Pending:    len(q.items) - q.finished - len(q.byToken),
		Cached:     q.cached,
		Steals:     q.steals,
		EstimateNS: q.etaLocked(len(q.byToken)),
		Events:     len(q.events),
		Failures:   append([]PointError(nil), q.failures...),
	}
	for _, w := range q.workers {
		info := w.WorkerInfo
		info.LastSeenNS = now.Sub(w.seen).Nanoseconds()
		st.Workers = append(st.Workers, info)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	return st
}

// Subscribe atomically snapshots the event log and registers a live
// channel, so a subscriber sees every event exactly once whenever it
// joins. One too slow to drain its channel is dropped (the channel is
// closed) rather than stalling completions. cancel is idempotent. A
// closed queue yields a closed channel.
func (q *Queue) Subscribe() (history []Event, live <-chan Event, cancel func()) {
	// The buffer absorbs a burst of completions while the subscriber is
	// mid-write; a whole paper-scale sweep is ~1000 events.
	ch := make(chan Event, 1024)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		close(ch)
	} else {
		q.subs[ch] = true
	}
	return append([]Event(nil), q.events...), ch, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.subs[ch] {
			delete(q.subs, ch)
			close(ch)
		}
	}
}

// label renders the point for events, tagged with its named consumer.
func (it *queueItem) label() string {
	if it.lease == nil || it.lease.worker == "" {
		return it.p.String()
	}
	return it.p.String() + " @ " + it.lease.worker
}

// touchLocked records contact from a named consumer and returns its row;
// unnamed (local) consumers are not tracked.
func (q *Queue) touchLocked(name string, now time.Time) *workerRow {
	if name == "" {
		return nil
	}
	w := q.workers[name]
	if w == nil {
		w = &workerRow{WorkerInfo: WorkerInfo{Name: name}}
		q.workers[name] = w
	}
	w.seen = now
	return w
}

// expireLocked reads the clock and reclaims every lease whose holder has
// missed its TTL. Expiry is only observable through the queue's methods,
// so evaluating it at the top of each suffices.
func (q *Queue) expireLocked() time.Time {
	now := q.now()
	for _, it := range q.byToken {
		if now.After(it.lease.expiry) {
			q.dropLeaseLocked(it)
			q.steals++
		}
	}
	return now
}

// dropLeaseLocked releases the claim under a lease and forgets its
// token; unless finished, the item is pending again.
func (q *Queue) dropLeaseLocked(it *queueItem) {
	it.lease.claim.Release()
	delete(q.byToken, it.lease.token)
	if w := q.workers[it.lease.worker]; w != nil && w.InFlight > 0 {
		w.InFlight--
	}
	it.lease = nil
}

// finishLocked finishes an item — cached, simulated, or failed with
// cause — and emits its PointFinished with the ETA over what is still
// outstanding, preceded by the PointStarted every point owes the stream
// when it was never leased.
func (q *Queue) finishLocked(it *queueItem, cached bool, cause error) {
	e := Event{Type: PointFinished, Point: it.p, Label: it.label(), Cached: cached}
	// The finishing consumer leases again at once, so the effective
	// parallelism is the lease count before this one is dropped.
	par := len(q.byToken)
	if it.lease != nil {
		e.ElapsedNS = q.now().Sub(it.lease.granted).Nanoseconds()
		q.dropLeaseLocked(it)
	} else {
		q.emitLocked(Event{Type: PointStarted, Point: it.p, Label: e.Label})
	}
	it.finished = true
	q.finished++
	if cause != nil {
		q.failures = append(q.failures, PointError{Point: it.p, Err: cause})
		e.Error = cause.Error()
	} else if cached {
		q.cached++
	}
	e.EstimateNS = q.etaLocked(par)
	q.emitLocked(e)
	if q.finished == len(q.items) {
		close(q.done)
	}
}

// etaLocked projects the remaining wall-clock in nanoseconds: the mean
// per-point time over the outstanding points, divided by the effective
// parallelism par (at least 1, so an all-pending queue still projects).
// 0 when nothing remains or no timing exists yet.
func (q *Queue) etaLocked(par int) int64 {
	pending := len(q.items) - q.finished
	if q.est.N() == 0 || pending == 0 {
		return 0
	}
	par = max(1, min(par, pending))
	return int64(q.est.Mean() * float64(pending) / float64(par) * 1e9)
}

// emitLocked stamps one event with the sweep-wide fields, appends it to
// the log, hands it to the synchronous observer and fans it out,
// dropping subscribers too slow to drain.
func (q *Queue) emitLocked(e Event) {
	e.Done, e.Total = q.finished, len(q.items)
	e.Sampled = q.runner.configFor(e.Point).Sampling.Enabled
	q.events = append(q.events, e)
	if q.progress != nil {
		q.progress(e)
	}
	for ch := range q.subs {
		select {
		case ch <- e:
		default:
			delete(q.subs, ch)
			close(ch)
		}
	}
}

// newToken mints an unguessable lease token.
func newToken() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
