package serve

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
)

// Job states, in lifecycle order.
const (
	// JobQueued means the job waits for a worker slot.
	JobQueued = "queued"
	// JobRunning means the job's sweep is simulating.
	JobRunning = "running"
	// JobDone means the figure is fully cached and servable.
	JobDone = "done"
	// JobFailed means the sweep aborted; see the job's Error.
	JobFailed = "failed"
)

// Job is one background figure computation: a point queue over the
// figure's points, drained by the runner's local consumers, followed by
// a render from the now-warm store. The job itself keeps only identity and
// lifecycle state; progress events (retained for replay, so late SSE
// subscribers see the full history), counters and subscriptions are its
// queue's.
type Job struct {
	id     string
	key    string      // dedup key: the figure id, plus the request fingerprint for parameterized jobs
	fig    string      // figure id, for display
	runner *exp.Runner // the runner this job sweeps (a derived one for parameterized jobs)
	queue  *exp.Queue  // the figure's points; empty when they could not be keyed (the job then fails at once)

	mu     sync.Mutex
	state  string
	errMsg string
	done   chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Status snapshots the job for JSON rendering, from counters the queue
// keeps — no pass over the event history.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{ID: j.id, Key: j.key, Figure: j.fig, State: j.state, Error: j.errMsg}
	j.mu.Unlock()
	qs := j.queue.Status()
	st.Events, st.Done, st.Total = qs.Events, qs.Done, qs.Total
	st.Cached, st.Simulated = qs.Cached, qs.Done-qs.Cached-len(qs.Failures)
	st.EstimateNS = qs.EstimateNS
	return st
}

// JobStatus is the wire form of a job snapshot.
type JobStatus struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Figure string `json:"figure"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	Events int    `json:"events"` // progress events emitted so far
	Done   int    `json:"done"`   // points finished
	Total  int    `json:"total"`  // deduplicated points in the sweep
	// Simulated and Cached split the finished points into ones this job
	// actually simulated versus ones served warm from the store — the
	// restart-resume smoke asserts a resumed job reports Simulated only
	// for points the killed server never finished.
	Simulated int `json:"simulated"`
	Cached    int `json:"cached"`
	// EstimateNS is the projected remaining wall-clock in nanoseconds.
	EstimateNS int64 `json:"eta_ns,omitempty"`
}

// finish records the terminal state and wakes every waiter.
func (j *Job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
	}
	close(j.done)
}

// Manager owns the server's background jobs: a bounded worker pool
// shared across requests, deduplication so two clients asking for the
// same figure share one job, and cancellation of everything in flight on
// shutdown.
type Manager struct {
	runner  *exp.Runner
	workers chan struct{}
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// onFinish, when set, observes every job reaching a terminal state
	// (the server uses it to settle the job's durable ticket). It is
	// called outside the manager lock, after the job's done channel
	// closed. Set it before the first Ensure.
	onFinish func(key string, err error)

	mu       sync.Mutex
	active   map[string]*Job // job key -> live job (dedup)
	byID     map[string]*Job // job id -> job, including recent finished ones
	finished []string        // terminal job ids, oldest first, for eviction
	nextID   int
}

// maxFinishedJobs bounds how many terminal jobs (with their full event
// histories) the manager retains for status/replay queries; older ones
// are evicted so a long-running server polled by failing clients cannot
// grow without bound.
const maxFinishedJobs = 64

// NewManager builds a manager running at most workers figure jobs
// concurrently (min 1).
func NewManager(runner *exp.Runner, workers int) *Manager {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		runner:  runner,
		workers: make(chan struct{}, workers),
		ctx:     ctx,
		cancel:  cancel,
		active:  make(map[string]*Job),
		byID:    make(map[string]*Job),
	}
}

// Ensure returns the live job computing the given figure under the
// given dedup key, creating one if none is active: concurrent requests
// with the same key share a single sweep. Plain figure requests key by
// figure id; parameterized requests append their request fingerprint,
// so distinct parameter sets run as distinct jobs. A nil runner uses
// the manager's default; parameterized jobs pass their derived runner,
// which shares the default one's store. The job drains a queue of the
// experiment's points through that store (cached ones finish at once)
// and then renders the table once, so a follow-up figure request serves
// straight from the cache.
func (m *Manager) Ensure(key string, ex exp.Experiment, runner *exp.Runner) *Job {
	if runner == nil {
		runner = m.runner
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.active[key]; ok {
		return j
	}
	m.nextID++
	// PointsFor records what ex.Run itself reads, so the queue and the
	// render that follows it cannot disagree about the figure's points.
	// The lease TTL is the claim files' default, as for any local sweep.
	queue, err := exp.NewQueue(runner, runner.PointsFor([]string{ex.Name}), results.DefaultClaimTTL, nil)
	if err != nil {
		// Status and the event stream still need a queue to read: an
		// empty one, whose stream is just the terminal event.
		queue, _ = exp.NewQueue(runner, nil, results.DefaultClaimTTL, nil)
	}
	j := &Job{
		id:     fmt.Sprintf("job-%d", m.nextID),
		key:    key,
		fig:    FigureID(ex.Name),
		runner: runner,
		queue:  queue,
		state:  JobQueued,
		done:   make(chan struct{}),
	}
	m.active[key] = j
	m.byID[j.id] = j
	m.wg.Add(1)
	go m.run(j, ex, err)
	return j
}

// run executes one job under the worker pool; a non-nil queueErr (the
// figure's points could not be keyed) fails it without sweeping.
func (m *Manager) run(j *Job, ex exp.Experiment, queueErr error) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		if m.active[j.key] == j {
			delete(m.active, j.key)
		}
		m.finished = append(m.finished, j.id)
		for len(m.finished) > maxFinishedJobs {
			delete(m.byID, m.finished[0])
			m.finished = m.finished[1:]
		}
		m.mu.Unlock()
	}()
	err := queueErr
	if err == nil {
		err = m.sweep(j, ex)
	}
	j.finish(err)
	// A job interrupted by shutdown is not settled: its durable ticket
	// stays open so the next process reattaches and resumes it. Only
	// jobs that genuinely completed or failed settle their ticket.
	if m.onFinish != nil && m.ctx.Err() == nil {
		m.onFinish(j.key, err)
	}
}

// sweep drains the job's queue and renders, returning its terminal
// error (nil on success).
func (m *Manager) sweep(j *Job, ex exp.Experiment) error {
	select {
	case m.workers <- struct{}{}:
		defer func() { <-m.workers }()
	case <-m.ctx.Done():
		return m.ctx.Err()
	}
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
	if err := j.runner.Drain(m.ctx, j.queue); err != nil {
		return err
	}
	// Every point is in the store now; render once so the figure is known
	// to render cleanly before the job reports done.
	_, err := ex.Run(j.runner)
	return err
}

// Get looks a job up by id (live or finished).
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	return j, ok
}

// ActiveFor returns the live job for a figure id, if any.
func (m *Manager) ActiveFor(figID string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.active[figID]
	return j, ok
}

// Jobs lists every retained job (live ones plus the most recent
// terminal ones), in creation order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.byID))
	for _, j := range m.byID {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return jobSeq(out[i].id) < jobSeq(out[k].id) })
	return out
}

// jobSeq extracts the creation sequence number from a "job-N" id.
func jobSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n
}

// Close cancels every queued and running job and waits for their
// goroutines to drain. In-flight simulation points run to completion and
// persist (the store is append-only), so a restarted server resumes
// where this one stopped.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}
