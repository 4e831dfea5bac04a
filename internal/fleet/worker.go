package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"breakhammer/internal/exp"
	"breakhammer/internal/results"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	URL    string                           // coordinator base URL, e.g. http://host:8077
	Name   string                           // display name reported to the coordinator
	Store  *results.Store                   // local warm cache (nil = memory-only)
	Client *http.Client                     // nil = a client with a 30s request timeout
	Logf   func(format string, args ...any) // nil = silent

	// BaseBackoff/MaxBackoff bound the jittered exponential backoff on
	// connection errors (defaults 500ms and 30s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// WorkerSummary accounts one RunWorker invocation.
type WorkerSummary = exp.ConsumerSummary

// errProtocol wraps an answer the worker cannot act on: a non-2xx
// status, or a 2xx whose body is not the JSON the protocol promises (a
// proxy's HTML page, a different service on the port). Either is fatal
// to the worker — retrying a rejected or unintelligible exchange can
// only livelock the fleet — while connection errors retry with backoff.
var errProtocol = errors.New("fleet protocol error")

// RunWorker joins the fleet at opts.URL and runs the consumer loop
// (exp.Runner.Consume: lease -> simulate -> submit) against the
// coordinator's queue until it reports the sweep done, the context is
// cancelled, or a fatal error (protocol rejection, local simulation
// failure, diverged store keys) stops this worker. Cancellation is
// clean: the held lease is released so the point re-queues immediately,
// and a simulation finishing during shutdown still submits on a
// detached context. The worker's own store memoizes across runs — a
// re-joined worker serves previously simulated points from its warm
// cache without re-simulating.
func RunWorker(ctx context.Context, opts WorkerOptions) (WorkerSummary, error) {
	if opts.URL == "" {
		return WorkerSummary{}, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 500 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 30 * time.Second
	}
	store := opts.Store
	if store == nil {
		store = results.NewMemory()
	}

	// Version handshake: the coordinator ships its resolved options, so
	// this worker simulates exactly the coordinator's sweep. Protocol or
	// schema mismatches come back 409 and are fatal.
	c := client{opts}
	var hello helloResponse
	err := c.call(ctx, "hello",
		helloRequest{Worker: opts.Name, Protocol: ProtocolVersion, Schema: results.SchemaVersion}, &hello)
	if err != nil {
		return WorkerSummary{}, err
	}
	var sweepOpts exp.Options
	if err := json.Unmarshal(hello.Options, &sweepOpts); err != nil {
		return WorkerSummary{}, fmt.Errorf("fleet: decoding coordinator options: %w", err)
	}
	opts.Logf("joined fleet at %s (protocol v%d, schema %d)", opts.URL, hello.Protocol, hello.Schema)
	return exp.NewRunnerWithStore(sweepOpts, store).Consume(ctx, c, opts.Name, opts.Logf)
}

// client is the coordinator's queue as seen over HTTP: the
// exp.LeaseSource a fleet worker consumes from.
type client struct{ opts WorkerOptions }

func (c client) Lease(ctx context.Context, worker string) (exp.Lease, error) {
	var l exp.Lease
	err := c.call(ctx, "lease", leaseRequest{Worker: worker}, &l)
	return l, err
}

// Heartbeat posts once, without retries: connection errors are
// survivable (the TTL tolerates several missed beats, and the next tick
// tries again); only a 410 reports the lease lost.
func (c client) Heartbeat(ctx context.Context, token string) error {
	return c.post(ctx, "heartbeat", tokenRequest{Token: token}, &okResponse{})
}

func (c client) Complete(ctx context.Context, token string, done exp.Completion) error {
	return c.call(ctx, "result", resultRequest{Token: token, Completion: done}, &okResponse{})
}

// Fail hands the lease back — another worker or code revision may fare
// better — and stops this worker with a non-zero report: a point it
// cannot simulate would fail again on every retry.
func (c client) Fail(_ context.Context, token string, cause error) error {
	c.Release(token)
	return fmt.Errorf("fleet: %w", cause)
}

// Release is a best-effort background call — used on worker shutdown
// and fatal errors, where the original context is typically already
// cancelled.
func (c client) Release(token string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.post(ctx, "release", tokenRequest{Token: token}, &okResponse{})
}

// call is post retried on connection errors with jittered exponential
// backoff. Protocol errors are returned immediately: the coordinator
// answered, and it said no.
func (c client) call(ctx context.Context, what string, req, resp any) error {
	delay := c.opts.BaseBackoff
	for {
		err := c.post(ctx, what, req, resp)
		if err == nil || errors.Is(err, errProtocol) || errors.Is(err, exp.ErrLeaseLost) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.opts.Logf("%s failed (%v); retrying in %v", what, err, delay.Round(time.Millisecond))
		if serr := exp.SleepJitter(ctx, delay); serr != nil {
			return serr
		}
		delay = min(2*delay, c.opts.MaxBackoff)
	}
}

// post sends req to /api/fleet/<what> and decodes the answer into resp.
// A 410 is exp.ErrLeaseLost; any other non-2xx answer (its errorResponse
// body decoded) and a 2xx body that is not JSON are errProtocol;
// transport failures return the underlying error.
func (c client) post(ctx context.Context, what string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.opts.URL+"/api/fleet/"+what, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hres, err := c.opts.Client.Do(hreq)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, 64<<20))
	if err != nil {
		return err
	}
	switch {
	case hres.StatusCode == http.StatusGone:
		return exp.ErrLeaseLost
	case hres.StatusCode/100 != 2:
		e := errorResponse{Error: string(data)}
		json.Unmarshal(data, &e) // a body that is not the error JSON is reported raw
		return fmt.Errorf("%w: coordinator answered %d: %s", errProtocol, hres.StatusCode, e.Error)
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("%w: coordinator answered %d with an undecodable body (%v): %.80q", errProtocol, hres.StatusCode, err, data)
	}
	return nil
}
