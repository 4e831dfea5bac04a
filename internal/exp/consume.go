package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"breakhammer/internal/results"
	"breakhammer/internal/workload"
)

// LeaseSource is a consumer's view of a point queue: *Queue in process,
// the fleet worker's HTTP client in front of a remote coordinator's.
type LeaseSource interface {
	// Lease returns the next grant, a Wait to sleep out, or Done; it
	// does not block.
	Lease(ctx context.Context, worker string) (Lease, error)
	// Heartbeat keeps a lease alive; ErrLeaseLost means it was re-issued.
	Heartbeat(ctx context.Context, token string) error
	// Complete submits a finished point; ErrLeaseLost as for Heartbeat.
	Complete(ctx context.Context, token string, c Completion) error
	// Fail reports a point this consumer could not compute. A nil answer
	// lets it carry on with the next point (the local queue records the
	// failure and presses on); an error stops it (a remote worker hands
	// the lease back and exits non-zero, since the same point would fail
	// again on every retry).
	Fail(ctx context.Context, token string, cause error) error
	// Release hands a lease back unfinished (shutdown).
	Release(token string)
}

// ConsumerSummary accounts one Consume invocation.
type ConsumerSummary struct {
	Completed int // completions the queue accepted
	Simulated int // points this consumer actually simulated
	Cached    int // points served from the consumer's warm store
	Stolen    int // leases lost mid-point (the work went to another consumer)
	Failed    int // points that failed to compute
}

// Consume is the consumer loop every front-end runs: lease -> get or
// simulate through this runner's store -> complete, until the source
// reports the queue drained, ctx is cancelled, or a fatal error (the
// source refusing a failure or a completion) stops it. Cancellation is
// clean: no new point is picked up, a lease not yet simulating is
// released so the point re-queues immediately, and a simulation already
// running finishes and still completes, on a detached context. logf,
// when non-nil, narrates each point.
func (r *Runner) Consume(ctx context.Context, src LeaseSource, worker string, logf func(format string, args ...any)) (ConsumerSummary, error) {
	var sum ConsumerSummary
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		l, err := src.Lease(ctx, worker)
		switch {
		case err != nil:
			return sum, err
		case l.Done:
			return sum, nil
		case l.Wait:
			err = SleepJitter(ctx, max(time.Duration(l.RetryNS), time.Millisecond))
		default:
			err = r.consumeOne(ctx, src, l, &sum, logf)
		}
		if err != nil {
			return sum, err
		}
	}
}

// consumeOne processes one granted lease end to end.
func (r *Runner) consumeOne(ctx context.Context, src LeaseSource, l Lease, sum *ConsumerSummary, logf func(string, ...any)) error {
	// Check the point's key against this consumer's own derivation (the
	// memoized one, revalidated against the trace files' current content)
	// before simulating anything: a mismatch means this consumer would
	// compute something the queue cannot accept (diverged options, code
	// revision, or trace content edited since the point was queued), and
	// one wasted simulation per divergence is one too many.
	key, err := r.PointKey(l.Point)
	if err == nil && key != l.Key {
		err = fmt.Errorf("store key mismatch for %v: this consumer derives %.12s, the queue leased %.12s (diverged options, code revision, or trace content)",
			l.Point, key, l.Key)
	}
	// The mixes are resolved — trace hashes pinned — once more for the
	// run, and getOrSimulate keys the run by exactly them: should a trace
	// change between the check above and here, the results land under the
	// new content's key and the completion, carrying that key, is refused.
	var mixes []workload.Mix
	if err == nil {
		mixes, err = r.resolvedMixes(l.Point)
	}
	if err != nil {
		sum.Failed++
		return src.Fail(ctx, l.Token, err)
	}

	logf("leased %v", l.Point)
	stop := keepAlive(ctx, src, l)
	ep, err := r.getOrSimulate(ctx, r.configFor(l.Point), mixes)
	stop()
	if err != nil {
		if ctx.Err() != nil {
			// Cancellation is the consumer stopping, not the point failing.
			src.Release(l.Token)
			return ctx.Err()
		}
		sum.Failed++
		return src.Fail(ctx, l.Token, fmt.Errorf("exp: %v: %w", l.Point, err))
	}
	// Complete on a detached context so a point that finished during
	// shutdown still lands — losing a completed simulation to a race with
	// Ctrl-C wastes the most expensive thing a consumer has.
	subCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Minute)
	defer cancel()
	err = src.Complete(subCtx, l.Token, Completion{Key: ep.Key, Schema: results.SchemaVersion,
		Cached: ep.Cached, ElapsedNS: ep.Elapsed.Nanoseconds(), Results: ep.Results})
	switch {
	case errors.Is(err, ErrLeaseLost):
		// The queue re-issued the point while it simulated here. This
		// consumer's store is warm now; the result is the new holder's.
		sum.Stolen++
		logf("lease for %v was lost mid-point (re-issued elsewhere)", l.Point)
	case err != nil:
		return fmt.Errorf("completing %v: %w", l.Point, err)
	case ep.Cached:
		sum.Completed++
		sum.Cached++
		logf("submitted %v (from warm local cache)", l.Point)
	default:
		sum.Completed++
		sum.Simulated++
		logf("submitted %v (simulated in %v)", l.Point, ep.Elapsed.Round(time.Millisecond))
	}
	return nil
}

// keepAlive heartbeats the lease every TTL/4 until the returned stop, or
// until the lease is lost (the completion then learns so too). The
// goroutine lives on a detached context so a cancellation mid-simulation
// does not silence the final heartbeats while the in-flight point
// drains. Other errors are survivable: the TTL tolerates several missed
// beats, and the next tick retries.
func keepAlive(ctx context.Context, src LeaseSource, l Lease) (stop func()) {
	hbCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(max(time.Duration(l.TTLNS)/4, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if errors.Is(src.Heartbeat(hbCtx, l.Token), ErrLeaseLost) {
					return
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// SleepJitter sleeps d spread by ±25% — so consumers knocked loose by
// one coordinator restart don't come back in lockstep — or returns early
// with the context's error.
func SleepJitter(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(time.Duration(float64(d) * (0.75 + 0.5*rand.Float64())))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Drain runs the local consumers — SetJobs of them, never more than
// there are unfinished points — against q until every point is done or
// failed. Cancelling ctx stops picking up new points (see Consume) and
// returns the context error; point failures do not stop the others and
// come back aggregated as a *SweepError once the queue has drained.
func (r *Runner) Drain(ctx context.Context, q *Queue) error {
	jobs := r.jobs
	if jobs <= 0 {
		// Each point already fans out across its mixes inside
		// sim.RunMixes (up to GOMAXPROCS workers), so defaulting to
		// GOMAXPROCS points in flight would square the parallelism and
		// balloon memory with live System instances at paper scale. A
		// quarter of the cores at the point level keeps the machine
		// saturated through the mix-level pool.
		jobs = max(2, runtime.GOMAXPROCS(0)/4)
	}
	st := q.Status()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		// A consumer told to wait sleeps; wake it when the last point lands.
		select {
		case <-q.Done():
			cancel()
		case <-cctx.Done():
		}
	}()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		fatal error
	)
	for i := 0; i < min(jobs, st.Total-st.Done); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Consume(cctx, q, "", nil); err != nil && cctx.Err() == nil {
				// A consumer that cannot go on strands its lease until the
				// TTL; stop the others instead of letting them wait it out.
				once.Do(func() { fatal = err; cancel() })
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if fs := q.Status().Failures; fatal == nil && len(fs) > 0 {
		return &SweepError{Failures: fs, Total: st.Total}
	}
	return fatal
}
