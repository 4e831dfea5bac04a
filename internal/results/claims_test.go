package results

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const testKey = "aa00000000000000000000000000000000000000000000000000000000000000"

// TestClaimExclusiveWithinStore: one holder at a time; Release frees the
// key for the next taker.
func TestClaimExclusiveWithinStore(t *testing.T) {
	for _, persistent := range []bool{false, true} {
		s := NewMemory()
		if persistent {
			var err error
			s, err = Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
		}
		c1, err := s.TryClaim(testKey, time.Minute)
		if err != nil || c1 == nil {
			t.Fatalf("persistent=%v: first claim = (%v, %v), want granted", persistent, c1, err)
		}
		if c2, err := s.TryClaim(testKey, time.Minute); err != nil || c2 != nil {
			t.Fatalf("persistent=%v: second claim granted while held", persistent)
		}
		c1.Release()
		c3, err := s.TryClaim(testKey, time.Minute)
		if err != nil || c3 == nil {
			t.Fatalf("persistent=%v: claim not reacquirable after release", persistent)
		}
		c3.Release()
		c3.Release() // double release is a no-op
	}
}

// TestClaimAcrossStores: two stores on one cache directory model two
// processes sharing it; the claim file arbitrates between them.
func TestClaimAcrossStores(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s1.TryClaim(testKey, time.Minute)
	if err != nil || c1 == nil {
		t.Fatalf("claim on store 1 = (%v, %v), want granted", c1, err)
	}
	if c2, err := s2.TryClaim(testKey, time.Minute); err != nil || c2 != nil {
		t.Fatal("store 2 granted a claim store 1 holds")
	}
	c1.Release()
	c2, err := s2.TryClaim(testKey, time.Minute)
	if err != nil || c2 == nil {
		t.Fatal("store 2 claim not granted after store 1 released")
	}
	c2.Release()
}

// TestClaimStaleExpiry: a claim file older than the TTL (a crashed
// worker) is stolen; a fresh one is respected.
func TestClaimStaleExpiry(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s1.TryClaim(testKey, time.Minute)
	if err != nil || c1 == nil {
		t.Fatal("initial claim not granted")
	}
	// Model the holder crashing long ago: age the claim file past the TTL.
	stale := time.Now().Add(-time.Hour)
	if err := os.Chtimes(s1.claimPath(testKey), stale, stale); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.TryClaim(testKey, time.Minute)
	if err != nil || c2 == nil {
		t.Fatal("stale claim was not stolen")
	}
	defer c2.Release()
	// The steal replaced the file with a fresh one; a third worker must
	// now be denied.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c3, err := s3.TryClaim(testKey, time.Minute); err != nil || c3 != nil {
		t.Fatal("fresh stolen claim was not respected")
	}
}

// TestClaimConcurrentDoubleRelease: Release is documented as a no-op on
// an already-released claim — including concurrent double calls (a
// worker's completion racing a shutdown path).
func TestClaimConcurrentDoubleRelease(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.TryClaim(testKey, time.Minute)
	if err != nil || c == nil {
		t.Fatal("claim not granted")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Release()
		}()
	}
	wg.Wait()
	c2, err := s.TryClaim(testKey, time.Minute)
	if err != nil || c2 == nil {
		t.Fatal("claim not reacquirable after concurrent releases")
	}
	c2.Release()
}

// TestClaimExpiresWithoutHeartbeat: a claim whose worker goes silent
// ages out and is stolen by another process after the TTL — the
// property the point queue relies on so a crashed consumer never
// strands a point.
func TestClaimExpiresWithoutHeartbeat(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 150 * time.Millisecond
	c1, err := s1.TryClaim(testKey, ttl)
	if err != nil || c1 == nil {
		t.Fatal("claim not granted")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh: respected like any live claim.
	if c2, err := s2.TryClaim(testKey, ttl); err != nil || c2 != nil {
		t.Fatal("fresh claim was not respected")
	}
	time.Sleep(2 * ttl)
	// No heartbeats arrived: the file aged out and the key is stealable.
	c3, err := s2.TryClaim(testKey, ttl)
	if err != nil || c3 == nil {
		t.Fatal("silent claim was not stolen after the TTL")
	}
	c3.Release()
	c1.Release() // releasing the stolen original stays a no-op for the file owner
}

// TestClaimHeartbeatKeepsAlive: a held claim outlives its TTL many
// times over as long as its holder keeps calling Heartbeat — no other
// worker may steal it while the holder is alive, however slow the point
// is. Without the heartbeats the file would age past the TTL and the
// second TryClaim would steal it.
func TestClaimHeartbeatKeepsAlive(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const ttl = 300 * time.Millisecond
	c1, err := s1.TryClaim(testKey, ttl)
	if err != nil || c1 == nil {
		t.Fatal("claim not granted")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * ttl)
	for time.Now().Before(deadline) {
		c1.Heartbeat()
		if c2, err := s2.TryClaim(testKey, ttl); err != nil {
			t.Fatal(err)
		} else if c2 != nil {
			t.Fatal("heartbeated claim was stolen mid-hold")
		}
		time.Sleep(ttl / 8)
	}
	c1.Release()
	c3, err := s2.TryClaim(testKey, ttl)
	if err != nil || c3 == nil {
		t.Fatal("claim not reacquirable after the holder released")
	}
	c3.Release()
	c3.Heartbeat() // harmless on a released claim
}

// TestClaimDeadOwnerStolen: a live (younger than the TTL) claim file is
// stolen at once when it provably names a dead owner on this host — a
// reaped process, or this process's pid under an earlier process's
// nonce — and respected whenever that cannot be proved.
func TestClaimDeadOwnerStolen(t *testing.T) {
	child := exec.Command(os.Args[0], "-test.run=^$")
	if err := child.Run(); err != nil {
		t.Fatal(err)
	}
	reaped := child.ProcessState.Pid()
	owner := func(host string, pid int, nonce string) string {
		b, err := json.Marshal(claimOwner{Host: host, PID: pid, Nonce: nonce, Start: "2026-01-01T00:00:00Z"})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct {
		name    string
		content string
		stolen  bool
	}{
		{"reaped child", owner(claimHost, reaped, "earlier"), true},
		{"this pid, foreign nonce", owner(claimHost, os.Getpid(), "earlier"), true},
		{"this process", owner(claimHost, os.Getpid(), claimNonce), false},
		{"another host", owner("elsewhere.invalid", reaped, "earlier"), false},
		{"live pid", owner(claimHost, os.Getppid(), "earlier"), false},
		{"old format", fmt.Sprintf(`{"pid":%d,"start":"2026-01-01T00:00:00Z"}`, reaped), false},
		{"unparseable", "{torn", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := s.claimPath(testKey)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(tc.content+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			c, err := s.TryClaim(testKey, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			if got := c != nil; got != tc.stolen {
				t.Fatalf("claim held by %s: granted = %v, want %v", tc.content, got, tc.stolen)
			}
			if c == nil {
				return
			}
			defer c.Release()
			var o claimOwner
			if b, err := os.ReadFile(path); err != nil || json.Unmarshal(b, &o) != nil {
				t.Fatalf("stolen claim file unreadable: %v", err)
			}
			if o.Host != claimHost || o.PID != os.Getpid() || o.Nonce != claimNonce {
				t.Fatalf("stolen claim names %+v, not this process", o)
			}
		})
	}
}

// TestClaimEmptyKeyRejected guards the claim-file path construction.
func TestClaimEmptyKeyRejected(t *testing.T) {
	s := NewMemory()
	if _, err := s.TryClaim("", time.Minute); err == nil {
		t.Fatal("empty key claimed")
	}
}

// TestReloadSeesOtherStoreWrites: a record appended through one store is
// invisible to another store's Get (loaded at Open) but visible to
// Reload, which re-scans the shard on disk — the read path behind
// waiting out another process's claim.
func TestReloadSeesOtherStoreWrites(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResults(7)
	if err := s1.Put(testKey, want); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testKey); ok {
		t.Fatal("Get on store 2 saw a record written after its Open")
	}
	got, ok := s2.Reload(testKey)
	if !ok {
		t.Fatal("Reload did not find the record on disk")
	}
	if got[0].MixName != want[0].MixName {
		t.Fatalf("Reload returned %q, want %q", got[0].MixName, want[0].MixName)
	}
	// Reload cached the record: Get now serves it from memory.
	if _, ok := s2.Get(testKey); !ok {
		t.Fatal("Reload did not cache the record in memory")
	}
}

// TestElapsedRoundTrip: per-point timings persist and reload.
func TestElapsedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Elapsed(testKey); ok {
		t.Fatal("Elapsed present before recording")
	}
	if err := s.RecordElapsed(testKey, 1500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d, ok := s.Elapsed(testKey); !ok || d != 1500*time.Millisecond {
		t.Fatalf("Elapsed = (%v, %v), want 1.5s", d, ok)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := reopened.Elapsed(testKey); !ok || d != 1500*time.Millisecond {
		t.Fatalf("Elapsed after reopen = (%v, %v), want 1.5s", d, ok)
	}
}

// TestHasAndCoverageSkipStats: presence probes must not skew the
// hit/miss counters the sweep tests assert on.
func TestHasAndCoverageSkipStats(t *testing.T) {
	s := NewMemory()
	if err := s.Put(testKey, sampleResults(1)); err != nil {
		t.Fatal(err)
	}
	other := "bb" + testKey[2:]
	if !s.Has(testKey) || s.Has(other) {
		t.Fatal("Has answered wrong")
	}
	if got := s.Coverage([]string{testKey, other}); got != 1 {
		t.Fatalf("Coverage = %d, want 1", got)
	}
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("presence probes counted as traffic: %+v", st)
	}
}
