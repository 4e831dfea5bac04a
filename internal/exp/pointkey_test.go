package exp

import (
	"context"
	"sync"
	"testing"
	"time"

	"breakhammer/internal/results"
)

// TestPointKeyMatchesUnmemoizedDerivation: for every point of every
// catalogue entry, the memoized PointKey — first derivation and recall
// alike — is the key an un-memoized derivation from the point's config and
// resolved mixes gives, and the whole catalogue costs one derivation per
// distinct point however often it is keyed.
func TestPointKeyMatchesUnmemoizedDerivation(t *testing.T) {
	r := NewRunner(QuickOptions())
	distinct := map[Point]bool{}
	for _, e := range Experiments() {
		for _, p := range r.PointsFor([]string{e.Name}) {
			distinct[p] = true
			mixes, err := r.resolvedMixes(p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := results.Key(r.configFor(p), mixes)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"derived", "recalled"} {
				if got, err := r.PointKey(p); err != nil || got != want {
					t.Fatalf("%s %v: %s key %.12s (err %v), un-memoized derivation %.12s", e.Name, p, pass, got, err, want)
				}
			}
		}
		// Coverage keys the experiment's points through the same memo.
		if _, _, err := r.Coverage(e.Name); err != nil {
			t.Fatal(err)
		}
	}
	if len(distinct) == 0 {
		t.Fatal("the catalogue enumerated no points")
	}
	if r.derivations != len(distinct) {
		t.Errorf("%d key derivations for %d distinct points", r.derivations, len(distinct))
	}
}

// TestConcurrentPointKeyUse hammers the three entry points that take keyMu
// — Coverage (which builds its list with keyMu released, through PointKey),
// PrefetchContext (queue construction, then each consumer's check of its
// lease) and PointKey itself — from concurrent goroutines on one runner.
// It must finish (the test binary's timeout is the deadlock detector) and
// be clean under -race, and still derive each point's key exactly once.
func TestConcurrentPointKeyUse(t *testing.T) {
	r := NewRunner(tinyOptions())
	points := r.PointsFor([]string{"13"})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if err := r.PrefetchContext(ctx, points, func(Event) {}); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, total, err := r.Coverage("13"); err != nil || total != len(points) {
					t.Errorf("Coverage: total %d of %d, err %v", total, len(points), err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, p := range points {
					if _, err := r.PointKey(p); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if cached, total, err := r.Coverage("13"); err != nil || cached != total {
		t.Errorf("coverage after the sweeps = %d/%d, err %v", cached, total, err)
	}
	if r.derivations != len(points) {
		t.Errorf("%d key derivations for %d points", r.derivations, len(points))
	}
}
