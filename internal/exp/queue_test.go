package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"breakhammer/internal/results"
	"breakhammer/internal/sim"
)

// fakeClock is the queue's injectable lease clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

const queueTestTTL = time.Minute

// newTestQueue builds a queue of figure 13's points (two with
// tinyOptions) over a persistent store in dir, on a fake clock. No test
// here simulates: completions carry sentinel results.
func newTestQueue(t *testing.T, dir string, progress ProgressFunc) (*Queue, *Runner, *fakeClock) {
	t.Helper()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWithStore(tinyOptions(), store)
	q, err := NewQueue(r, r.PointsFor([]string{"13"}), queueTestTTL, progress)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	q.now = clock.Now
	if st := q.Status(); st.Total != 2 {
		t.Fatalf("figure 13 queues %d points, the suite assumes 2", st.Total)
	}
	return q, r, clock
}

// sentinelFor is a valid completion for the lease without simulating.
func sentinelFor(l Lease) Completion {
	return Completion{
		Key:       l.Key,
		Schema:    results.SchemaVersion,
		ElapsedNS: int64(time.Second),
		Results:   []sim.MixResult{{Result: sim.Result{MixName: "sentinel " + l.Key[:8]}}},
	}
}

// mustLease takes a grant or fails the test.
func mustLease(t *testing.T, q *Queue, worker string) Lease {
	t.Helper()
	l, err := q.Lease(context.Background(), worker)
	if err != nil || l.Token == "" {
		t.Fatalf("Lease(%q) = %+v, %v; want a grant", worker, l, err)
	}
	return l
}

// claimFiles lists the cache directory's claim files.
func claimFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "claims"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestQueueExpiryStealsOnce: a lease whose holder goes silent past the
// TTL is reclaimed lazily — one steal, the claim released, the point
// re-issued under a fresh token — and the silent holder's token is dead.
func TestQueueExpiryStealsOnce(t *testing.T) {
	dir := t.TempDir()
	q, _, clock := newTestQueue(t, dir, nil)
	silent := mustLease(t, q, "silent")
	if got := len(claimFiles(t, dir)); got != 1 {
		t.Fatalf("a granted lease left %d claim files, want 1", got)
	}
	clock.Advance(queueTestTTL + time.Second)
	st := q.Status()
	if st.Steals != 1 || st.Leased != 0 || st.Pending != 2 {
		t.Fatalf("after expiry: %+v, want 1 steal and everything pending", st)
	}
	if got := claimFiles(t, dir); len(got) != 0 {
		t.Fatalf("expired lease left claim files %v", got)
	}
	if st.Workers[0].InFlight != 0 {
		t.Errorf("silent worker still shows %d in flight", st.Workers[0].InFlight)
	}
	again := mustLease(t, q, "live")
	if again.Key != silent.Key || again.Token == silent.Token {
		t.Errorf("re-issue = key %.8s token %.8s, want the stolen point under a fresh token", again.Key, again.Token)
	}
	if err := q.Heartbeat(context.Background(), silent.Token); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("stale heartbeat = %v, want ErrLeaseLost", err)
	}
	if err := q.Complete(context.Background(), silent.Token, sentinelFor(silent)); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("late complete = %v, want ErrLeaseLost", err)
	}
	// More clock without a second expiry must not count more steals.
	if err := q.Heartbeat(context.Background(), again.Token); err != nil {
		t.Fatal(err)
	}
	clock.Advance(queueTestTTL / 2)
	if st := q.Status(); st.Steals != 1 {
		t.Errorf("steals = %d after one expiry, want 1", st.Steals)
	}
}

// TestQueueHeartbeatExtendsLease: a heartbeat buys one more TTL.
func TestQueueHeartbeatExtendsLease(t *testing.T) {
	q, _, clock := newTestQueue(t, t.TempDir(), nil)
	l := mustLease(t, q, "w")
	for i := 0; i < 4; i++ {
		clock.Advance(queueTestTTL * 3 / 4)
		if err := q.Heartbeat(context.Background(), l.Token); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if st := q.Status(); st.Steals != 0 || st.Leased != 1 {
		t.Errorf("heartbeated lease: %+v, want it still held", st)
	}
}

// TestQueueReleaseRequeues: a released lease returns its point without
// a steal, release is idempotent, and the point leases out again.
func TestQueueReleaseRequeues(t *testing.T) {
	dir := t.TempDir()
	q, _, _ := newTestQueue(t, dir, nil)
	l := mustLease(t, q, "w")
	q.Release(l.Token)
	q.Release(l.Token)
	q.Release("never-issued")
	if st := q.Status(); st.Steals != 0 || st.Leased != 0 || st.Pending != 2 {
		t.Fatalf("after release: %+v, want everything pending and no steals", st)
	}
	if got := claimFiles(t, dir); len(got) != 0 {
		t.Fatalf("released lease left claim files %v", got)
	}
	if again := mustLease(t, q, "w2"); again.Key != l.Key || again.Token == l.Token {
		t.Errorf("re-lease = key %.8s token %.8s, want the same point under a fresh token", again.Key, again.Token)
	}
}

// TestQueueCompleteValidates: schema, key and payload are checked before
// anything reaches the store; a rejection leaves the lease intact, the
// untouched original lands, and a consumed token is dead.
func TestQueueCompleteValidates(t *testing.T) {
	q, r, _ := newTestQueue(t, t.TempDir(), nil)
	ctx := context.Background()
	l := mustLease(t, q, "w")
	good := sentinelFor(l)
	cases := map[string]func(c Completion) Completion{
		"wrong schema":  func(c Completion) Completion { c.Schema++; return c },
		"wrong key":     func(c Completion) Completion { c.Key = "0000" + c.Key[4:]; return c },
		"empty results": func(c Completion) Completion { c.Results = nil; return c },
	}
	for name, mutate := range cases {
		if err := q.Complete(ctx, l.Token, mutate(good)); !errors.Is(err, ErrRejected) {
			t.Errorf("%s: Complete = %v, want ErrRejected", name, err)
		}
	}
	if r.Store().Has(l.Key) || r.Store().Stats().Written != 0 {
		t.Fatal("a rejected completion reached the store")
	}
	if st := q.Status(); st.Leased != 1 || st.Done != 0 {
		t.Fatalf("rejections disturbed the lease: %+v", st)
	}
	if err := q.Complete(ctx, l.Token, good); err != nil {
		t.Fatalf("valid completion: %v", err)
	}
	if rs, ok := r.Store().Get(l.Key); !ok || rs[0].MixName != good.Results[0].MixName {
		t.Fatal("accepted completion missing from the store")
	}
	if d, ok := r.Store().Elapsed(l.Key); !ok || d != time.Second {
		t.Errorf("recorded timing = %v, %v; want the submitted second", d, ok)
	}
	if err := q.Complete(ctx, l.Token, good); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("duplicate complete = %v, want ErrLeaseLost", err)
	}
	st := q.Status()
	if st.Done != 1 || st.Cached != 0 || st.Workers[0].Simulated != 1 || st.Workers[0].InFlight != 0 {
		t.Errorf("after one completion: %+v", st)
	}
}

// TestQueueFailCountsAndContinues: a failed point is terminal, counts
// toward Done, carries its error on the stream, and does not stop the
// queue from draining.
func TestQueueFailCountsAndContinues(t *testing.T) {
	var events []Event
	q, _, _ := newTestQueue(t, t.TempDir(), func(e Event) { events = append(events, e) })
	ctx := context.Background()
	bad, ok := mustLease(t, q, ""), mustLease(t, q, "")
	if err := q.Fail(ctx, bad.Token, errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(ctx, ok.Token, sentinelFor(ok)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-q.Done():
	default:
		t.Fatal("queue not done with every point done or failed")
	}
	if fs := q.Status().Failures; len(fs) != 1 || fs[0].Point != bad.Point || fs[0].Err.Error() != "boom" {
		t.Errorf("Failures = %+v", fs)
	}
	if l, err := q.Lease(context.Background(), ""); err != nil || !l.Done {
		t.Errorf("drained queue answers %+v, %v; want Done", l, err)
	}
	var failed int
	for _, e := range events {
		if e.Type == PointFinished && e.Error == "boom" && e.Point == bad.Point {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d finished events carry the failure, want 1", failed)
	}
}

// TestQueueWarmStoreTakesNoClaim: over a store that already holds every
// point, construction finishes them all as cached from the key index —
// Status is right at once, zero shard reads, no claim file at any time —
// and the stream still owes (and gets) one started and one finished
// event per point.
func TestQueueWarmStoreTakesNoClaim(t *testing.T) {
	dir := t.TempDir()
	q, _, _ := newTestQueue(t, dir, nil)
	for i := 0; i < 2; i++ {
		l := mustLease(t, q, "")
		if err := q.Complete(context.Background(), l.Token, sentinelFor(l)); err != nil {
			t.Fatal(err)
		}
	}
	if got := claimFiles(t, dir); len(got) != 0 {
		t.Fatalf("a drained queue left claim files %v", got)
	}

	var events []Event
	warm, r, _ := newTestQueue(t, dir, func(e Event) { events = append(events, e) })
	st := warm.Status()
	if st.Done != 2 || st.Cached != 2 || st.Pending != 0 || st.Events != 4 {
		t.Fatalf("warm queue born as %+v, want everything done and cached", st)
	}
	select {
	case <-warm.Done():
	default:
		t.Fatal("warm queue not born done")
	}
	if l, err := warm.Lease(context.Background(), ""); err != nil || !l.Done {
		t.Fatalf("warm Lease = %+v, %v; want Done", l, err)
	}
	if err := r.Drain(context.Background(), warm); err != nil {
		t.Fatal(err)
	}
	if got := r.Store().Stats().ShardReads; got != 0 {
		t.Errorf("warm pass performed %d shard reads, want 0", got)
	}
	if got := claimFiles(t, dir); len(got) != 0 {
		t.Errorf("warm pass created claim files %v", got)
	}
	started, finished := map[Point]int{}, map[Point]int{}
	for _, e := range events {
		switch {
		case e.Type == PointStarted:
			started[e.Point]++
		case e.Type == PointFinished && e.Cached:
			finished[e.Point]++
		}
	}
	if len(started) != 2 || len(finished) != 2 {
		t.Errorf("warm stream: %d started / %d finished-cached points, want 2 / 2", len(started), len(finished))
	}
}

// TestQueuePromotesForeignFinish: a point another process finishes
// while it is pending here is collected through the index sync at the
// next lease request and finished as cached, without a claim.
func TestQueuePromotesForeignFinish(t *testing.T) {
	dir := t.TempDir()
	q, _, _ := newTestQueue(t, dir, nil)
	other, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := mustLease(t, q, "w")
	q.Release(first.Token)
	if err := other.Put(first.Key, sentinelFor(first).Results); err != nil {
		t.Fatal(err)
	}
	second := mustLease(t, q, "w")
	if second.Key == first.Key {
		t.Fatal("the queue leased a point another process already finished")
	}
	if st := q.Status(); st.Cached != 1 || st.Done != 1 {
		t.Errorf("foreign finish not promoted: %+v", st)
	}
	if got := len(claimFiles(t, dir)); got != 1 {
		t.Errorf("%d claim files, want only the live lease's", got)
	}
}

// TestQueueForeignClaimMeansWait: a point pinned by a claim this queue
// does not own is not leased; the consumer is told to come back at the
// claim-poll cadence.
func TestQueueForeignClaimMeansWait(t *testing.T) {
	dir := t.TempDir()
	q, r, _ := newTestQueue(t, dir, nil)
	for _, p := range r.PointsFor([]string{"13"}) {
		key, err := r.PointKey(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.Store().TryClaim(key, time.Minute)
		if err != nil || c == nil {
			t.Fatal("could not pin the point")
		}
		defer c.Release()
	}
	l, err := q.Lease(context.Background(), "w")
	if err != nil || !l.Wait || time.Duration(l.RetryNS) != claimPoll {
		t.Errorf("Lease = %+v, %v; want Wait with the claim-poll retry", l, err)
	}
}

// TestQueueWaitRetryIsShortAtLongTTL: at a fleet-sized TTL, a consumer
// that finds the last point leased to a peer is told to come back within
// claimPoll, not a quarter of the TTL: a remote worker has nothing else to
// wake it when the peer finishes, and would idle that long past the end.
func TestQueueWaitRetryIsShortAtLongTTL(t *testing.T) {
	store, err := results.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunnerWithStore(tinyOptions(), store)
	q, err := NewQueue(r, r.PointsFor([]string{"13"})[:1], 2*time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.now = (&fakeClock{t: time.Unix(1_700_000_000, 0)}).Now
	mustLease(t, q, "a")
	l, err := q.Lease(context.Background(), "b")
	if err != nil || !l.Wait || time.Duration(l.RetryNS) > claimPoll {
		t.Errorf("Lease(b) = %+v, %v; want Wait with a retry of at most %v", l, err, claimPoll)
	}
}

// TestQueueLateSubscriberSeesEachPointOnce: history then live, no
// duplicates, no gaps.
func TestQueueLateSubscriberSeesEachPointOnce(t *testing.T) {
	q, _, _ := newTestQueue(t, t.TempDir(), nil)
	ctx := context.Background()
	first := mustLease(t, q, "")
	if err := q.Complete(ctx, first.Token, sentinelFor(first)); err != nil {
		t.Fatal(err)
	}
	history, live, cancel := q.Subscribe()
	defer cancel()
	second := mustLease(t, q, "")
	if err := q.Complete(ctx, second.Token, sentinelFor(second)); err != nil {
		t.Fatal(err)
	}
	all := append([]Event(nil), history...)
	for len(all) < 4 {
		select {
		case e := <-live:
			all = append(all, e)
		case <-time.After(5 * time.Second):
			t.Fatalf("subscriber saw only %d of 4 events", len(all))
		}
	}
	if len(history) != 2 {
		t.Errorf("history replayed %d events, want the first point's 2", len(history))
	}
	seen := map[EventType]map[Point]int{PointStarted: {}, PointFinished: {}}
	for _, e := range all {
		seen[e.Type][e.Point]++
	}
	for typ, byPoint := range seen {
		for _, p := range []Point{first.Point, second.Point} {
			if byPoint[p] != 1 {
				t.Errorf("%s for %v seen %d times, want 1", typ, p, byPoint[p])
			}
		}
	}
	cancel()
	cancel() // idempotent
}

// TestQueueSlowSubscriberDropped: a subscriber that never drains is cut
// loose once its buffer fills; emitting never blocks on it.
func TestQueueSlowSubscriberDropped(t *testing.T) {
	q, _, _ := newTestQueue(t, t.TempDir(), nil)
	_, live, cancel := q.Subscribe()
	defer cancel()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		q.mu.Lock()
		defer q.mu.Unlock()
		for i := 0; i <= cap(live); i++ {
			q.emitLocked(Event{Type: PointStarted})
		}
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("emitting blocked on a subscriber that does not drain")
	}
	n := 0
	for range live { // terminates only if the queue closed the channel
		n++
	}
	if n != cap(live) {
		t.Errorf("dropped subscriber had %d buffered events, want a full buffer of %d", n, cap(live))
	}
	l := mustLease(t, q, "")
	if err := q.Complete(context.Background(), l.Token, sentinelFor(l)); err != nil {
		t.Errorf("completion after dropping the subscriber: %v", err)
	}
}

// TestQueueClosedGrantsNothing: Close releases held claims and ends
// subscriptions; afterwards lease requests wait, take no claim, and the
// dropped lease's token is lost.
func TestQueueClosedGrantsNothing(t *testing.T) {
	dir := t.TempDir()
	q, _, _ := newTestQueue(t, dir, nil)
	l := mustLease(t, q, "w")
	_, live, cancel := q.Subscribe()
	defer cancel()
	q.Close()
	q.Close()
	if got := claimFiles(t, dir); len(got) != 0 {
		t.Fatalf("Close left claim files %v", got)
	}
	if _, open := <-live; open {
		t.Error("Close left a subscription open")
	}
	after, err := q.Lease(context.Background(), "w")
	if err != nil || !after.Wait || after.Token != "" {
		t.Errorf("closed Lease = %+v, %v; want Wait", after, err)
	}
	if got := claimFiles(t, dir); len(got) != 0 {
		t.Errorf("a closed queue took claims %v", got)
	}
	if err := q.Complete(context.Background(), l.Token, sentinelFor(l)); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("complete after Close = %v, want ErrLeaseLost", err)
	}
}

// TestQueueConcurrentConsumers drives one queue from several goroutines
// at once — leases, heartbeats, completions, status polls and a
// subscriber — for the race detector.
func TestQueueConcurrentConsumers(t *testing.T) {
	store := results.NewMemory()
	opts := tinyOptions()
	opts.Mechanisms = []string{"rfm", "graphene", "para", "hydra"}
	opts.NRHs = []int{512, 128}
	r := NewRunnerWithStore(opts, store)
	q, err := NewQueue(r, r.PointsFor([]string{"15"}), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := q.Status().Total
	history, live, cancel := q.Subscribe()
	defer cancel()
	if len(history) != 0 {
		t.Fatalf("cold queue has %d events before any lease", len(history))
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				l, err := q.Lease(ctx, name)
				if err != nil {
					t.Error(err)
					return
				}
				if l.Done {
					return
				}
				if l.Wait { // the peers hold the last leases
					time.Sleep(time.Millisecond)
					continue
				}
				if err := q.Heartbeat(ctx, l.Token); err != nil {
					t.Error(err)
				}
				q.Status()
				if err := q.Complete(ctx, l.Token, sentinelFor(l)); err != nil {
					t.Error(err)
				}
			}
		}([]string{"a", "b", "", ""}[w])
	}
	wg.Wait()
	finished := 0
	for finished < total {
		select {
		case e := <-live:
			if e.Type == PointFinished {
				finished++
				if e.Done != finished {
					t.Errorf("finished events out of order: done=%d at position %d", e.Done, finished)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("subscriber saw %d of %d finished events", finished, total)
		}
	}
	if st := q.Status(); st.Done != total || st.Cached != 0 || st.Leased != 0 || st.Steals != 0 {
		t.Errorf("final status %+v, want %d simulated", st, total)
	}
}
