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

// misraOp kinds, as the first byte of an encoded operation.
const (
	opObserve = iota
	opResetKey
	opCount
	opReset
	misraOpKinds
)

// randomMisraOps encodes a seeded operation sequence in FuzzMisraGries'
// input format: one capacity byte, then (kind, key) byte pairs. Capacities
// 1–40 and a key universe at most ~3× the capacity keep evictions and
// count ties constant; half the observations go to a few hot keys, so
// counts also climb far enough to sift.
func randomMisraOps(seed int64, ops int) []byte {
	rng := rand.New(rand.NewSource(seed))
	capacity := 1 + rng.Intn(40)
	universe := capacity + rng.Intn(2*capacity+8)
	data := []byte{byte(capacity - 1)}
	for i := 0; i < ops; i++ {
		kind := opObserve
		switch p := rng.Intn(100); {
		case p < 8:
			kind = opResetKey
		case p < 14:
			kind = opCount
		case p < 15:
			kind = opReset
		}
		k := rng.Intn(universe)
		if rng.Intn(2) == 0 {
			k = rng.Intn(min(universe, 4))
		}
		data = append(data, byte(kind), byte(k-universe/2))
	}
	return data
}

// replayMisraOps drives MisraGries and the frozen refMisraGries through
// one encoded sequence and fails at the first operation after which they
// differ in the returned value, Len, the touched key's Count or the heap
// order (key and count per position); every 32 operations it also asks
// both for every key. Keys are multiples of 65 536, negative ones
// included, so their probe sequences collide in the small index.
func replayMisraOps(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	capacity := 1 + int(data[0])%40
	got, want := NewMisraGries(capacity), newRefMisraGries(capacity)
	keys := map[int]bool{}
	for step, op := 0, data[1:]; len(op) >= 2; step, op = step+1, op[2:] {
		kind, key := int(op[0])%misraOpKinds, int(int8(op[1]))<<16
		keys[key] = true
		var g, w int
		switch kind {
		case opObserve:
			g, w = got.Observe(key), want.Observe(key)
		case opResetKey:
			got.ResetKey(key)
			want.ResetKey(key)
		case opCount:
			g, w = got.Count(key), want.Count(key)
		case opReset:
			got.Reset()
			want.Reset()
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("capacity %d, op %d (kind %d, key %d): "+format,
				append([]any{capacity, step, kind, key}, args...)...)
		}
		if g != w {
			fail("returned %d, reference %d", g, w)
		}
		if got.Len() != want.Len() {
			fail("Len %d, reference %d", got.Len(), want.Len())
		}
		if g, w := got.Count(key), want.Count(key); g != w {
			fail("Count %d, reference %d", g, w)
		}
		for i, e := range want.entries {
			if g := got.entries[i]; g.key != e.key || g.count != e.count {
				fail("heap[%d] = (%d, %d), reference (%d, %d)", i, g.key, g.count, e.key, e.count)
			}
		}
		if step%32 == 0 {
			for k := range keys {
				if g, w := got.Count(k), want.Count(k); g != w {
					fail("Count(%d) %d, reference %d", k, g, w)
				}
			}
		}
	}
}

// TestMisraGriesMatchesReference holds the specialised heap and its
// open-addressed index against the frozen container/heap + map tracker
// (reference_test.go) on seeded random Observe/ResetKey/Count/Reset
// sequences.
func TestMisraGriesMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		replayMisraOps(t, randomMisraOps(seed, 3000))
	}
}

// FuzzMisraGries is TestMisraGriesMatchesReference over fuzzer bytes (see
// randomMisraOps for the format). The seed corpus is eight of the test's
// sequences, and plain `go test` replays it.
func FuzzMisraGries(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(randomMisraOps(seed, 400))
	}
	f.Fuzz(replayMisraOps)
}

// TestMisraGriesObserveReturnsEstimate: Observe returns the key's estimate
// after the increment, wherever the sift moved its entry. On a fresh table
// Observe 1, 2, 3, then Observe(1) sifts key 1 down below a count-1 child;
// reading the key's old heap position returned that child's 1 while
// Count(1) was 2. Graphene and AQUA compare the return value with their
// threshold, so that under-report made a trigger fire one activation late.
func TestMisraGriesObserveReturnsEstimate(t *testing.T) {
	m := NewMisraGries(8)
	m.Observe(1)
	m.Observe(2)
	m.Observe(3)
	if got, want := m.Observe(1), m.Count(1); got != want || got != 2 {
		t.Errorf("Observe(1) = %d, Count(1) = %d, want 2", got, want)
	}
}

// TestMisraGriesResetDoesNotAllocate pins the per-window reset: it runs
// every tREFW on every bank, so it reuses the warm table's storage — key
// index included — and a refilled table behaves like a fresh one.
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
