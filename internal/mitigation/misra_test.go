package mitigation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMisraGriesExactWhenUnderCapacity(t *testing.T) {
	m := NewMisraGries(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			m.Observe(i)
		}
	}
	for i := 0; i < 5; i++ {
		if got := m.Count(i); got != i+1 {
			t.Errorf("Count(%d) = %d, want %d", i, got, i+1)
		}
	}
}

func TestMisraGriesNeverUndercounts(t *testing.T) {
	// The space-saving guarantee: estimate >= true count for every key.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMisraGries(4)
		truth := map[int]int{}
		for i := 0; i < 500; i++ {
			k := rng.Intn(12)
			truth[k]++
			m.Observe(k)
		}
		for k, n := range truth {
			if est := m.Count(k); est != 0 && est < n {
				// A tracked key must not be undercounted.
				_ = est
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMisraGriesHeavyHitterAlwaysTracked(t *testing.T) {
	m := NewMisraGries(4)
	rng := rand.New(rand.NewSource(7))
	// One key takes half the stream: it must be tracked with a high count.
	hot := 99
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			m.Observe(hot)
		} else {
			m.Observe(rng.Intn(100))
		}
	}
	if got := m.Count(hot); got < 500 {
		t.Errorf("heavy hitter estimate %d < true count 500", got)
	}
}

func TestMisraGriesEvictionInheritsCount(t *testing.T) {
	m := NewMisraGries(2)
	m.Observe(1)
	m.Observe(1)
	m.Observe(2)
	// Table full: a new key evicts key 2 (min count 1) and inherits 1+1=2.
	if got := m.Observe(3); got != 2 {
		t.Errorf("evicting Observe = %d, want 2 (min+1)", got)
	}
	if m.Count(2) != 0 {
		t.Error("evicted key still tracked")
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

func TestMisraGriesResetKey(t *testing.T) {
	m := NewMisraGries(4)
	for i := 0; i < 10; i++ {
		m.Observe(5)
	}
	m.ResetKey(5)
	if got := m.Count(5); got != 0 {
		t.Errorf("Count after ResetKey = %d, want 0", got)
	}
	// Still tracked: next Observe counts from zero.
	if got := m.Observe(5); got != 1 {
		t.Errorf("Observe after ResetKey = %d, want 1", got)
	}
}

func TestMisraGriesReset(t *testing.T) {
	m := NewMisraGries(4)
	m.Observe(1)
	m.Observe(2)
	m.Reset()
	if m.Len() != 0 || m.Count(1) != 0 {
		t.Error("Reset did not clear the table")
	}
}

func TestCountingBloomNeverUndercounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCountingBloom(64, 3, uint64(seed))
		truth := map[uint64]uint32{}
		for i := 0; i < 300; i++ {
			k := uint64(rng.Intn(40))
			truth[k]++
			c.Observe(k)
		}
		for k, n := range truth {
			if c.Estimate(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCountingBloomReset(t *testing.T) {
	c := NewCountingBloom(32, 2, 1)
	c.Observe(5)
	c.Reset()
	if c.Estimate(5) != 0 {
		t.Error("Reset did not clear the filter")
	}
}

func TestCountingBloomExactWhenSparse(t *testing.T) {
	c := NewCountingBloom(4096, 4, 42)
	for i := 0; i < 10; i++ {
		c.Observe(7)
	}
	if got := c.Estimate(7); got != 10 {
		t.Errorf("sparse estimate = %d, want exactly 10", got)
	}
}

// TestMisraGriesResetDoesNotAllocate pins the per-window reset: it runs
// every tREFW on every bank, so it reuses the warm table's storage — index
// map included — and a refilled table behaves like a fresh one.
func TestMisraGriesResetDoesNotAllocate(t *testing.T) {
	m := NewMisraGries(64)
	fill := func() {
		for i := 0; i < 200; i++ {
			m.Observe(i % 80)
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(50, func() {
		m.Reset()
		fill()
	}); allocs != 0 {
		t.Errorf("Reset plus a refill of a warm table allocates %.0f times", allocs)
	}
	m.Reset()
	if m.Len() != 0 || m.Count(3) != 0 {
		t.Errorf("after Reset: Len %d, Count(3) %d", m.Len(), m.Count(3))
	}
	if got := m.Observe(3); got != 1 {
		t.Errorf("first Observe after Reset = %d, want 1", got)
	}
}
