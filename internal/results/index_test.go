package results

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// diskState is the differential oracle: a fresh linear scan of every
// shard on disk, decoded with the same tolerance as loadShard but
// implemented independently of the store (no index, no offsets).
type diskState struct {
	points map[string]bool
	raws   map[string]bool
}

func rescanOracle(t testing.TB, dir string) diskState {
	t.Helper()
	st := diskState{points: map[string]bool{}, raws: map[string]bool{}}
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range shards {
		f, err := os.Open(shard)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var rec record
			if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Schema != SchemaVersion || rec.Key == "" {
				continue
			}
			switch {
			case rec.Raw != nil:
				st.raws[rec.Key] = true
			case rec.Results != nil:
				st.points[rec.Key] = true
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// testKey fabricates a hex key so shard placement varies.
func idxKey(i int) string {
	return fmt.Sprintf("%064x", i*2654435761+17)
}

// handleModel tracks what one handle must report after Reset: only its
// own post-reset writes (syncs are disabled for a reset store).
type handleModel struct {
	reset  bool
	points map[string]bool
	raws   map[string]bool
}

// TestIndexDifferentialRandomOps drives two Store handles over one
// directory through random interleavings of Put/PutRaw/Reload/Compact/
// SyncIndex/Reset/claim churn and asserts, at every checkpoint, that
// Has/GetRaw/Coverage agree exactly with a fresh linear rescan of the
// shards (or, for a handle that called Reset, with its own post-reset
// writes).
func TestIndexDifferentialRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(seed))
			a, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			handles := []*Store{a, b}
			models := []*handleModel{
				{points: map[string]bool{}, raws: map[string]bool{}},
				{points: map[string]bool{}, raws: map[string]bool{}},
			}
			const keyPool = 24
			allKeys := make([]string, keyPool)
			for i := range allKeys {
				allKeys[i] = idxKey(i)
			}
			for op := 0; op < 240; op++ {
				hi := rng.Intn(2)
				h, m := handles[hi], models[hi]
				key := allKeys[rng.Intn(keyPool)]
				switch rng.Intn(10) {
				case 0, 1, 2: // Put (new or recompute)
					if err := h.Put(key, sampleResults(rng.Intn(5))); err != nil {
						t.Fatal(err)
					}
					if m.reset {
						m.points[key] = true
					}
				case 3: // PutRaw
					if err := h.PutRaw(key+"-raw", json.RawMessage(`{"v":1}`)); err != nil {
						t.Fatal(err)
					}
					if m.reset {
						m.raws[key+"-raw"] = true
					}
				case 4: // Reload (must never report a key the oracle lacks)
					h.Reload(key)
				case 5: // claim churn
					c, err := h.TryClaim(key, time.Minute)
					if err != nil {
						t.Fatal(err)
					}
					if c != nil {
						c.Release()
					}
				case 6: // SyncIndex
					if err := h.SyncIndex(); err != nil {
						t.Fatal(err)
					}
				case 7: // Compact. Compaction rewrites shards from the
					// compacting handle's memory, so its contract requires
					// that memory to mirror disk first — real callers
					// compact right after Open (bhserve startup). Model
					// that by syncing before compacting; a reset handle
					// has forfeited that mirror and must not compact.
					if !m.reset {
						if err := h.SyncIndex(); err != nil {
							t.Fatal(err)
						}
						if _, err := h.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				case 8: // Reset, at most once, on handle b only, so handle
					// a keeps exercising the full-equivalence branch
					if hi == 1 && !m.reset {
						h.Reset()
						m.reset = true
						m.points = map[string]bool{}
						m.raws = map[string]bool{}
					}
				case 9: // reopen a fresh handle in place (restart simulation)
					fresh, err := Open(dir)
					if err != nil {
						t.Fatal(err)
					}
					handles[hi] = fresh
					models[hi] = &handleModel{points: map[string]bool{}, raws: map[string]bool{}}
				}

				if op%20 != 19 {
					continue
				}
				// Checkpoint: sync both handles, compare against the oracle.
				disk := rescanOracle(t, dir)
				for i, h := range handles {
					m := models[i]
					if err := h.SyncIndex(); err != nil {
						t.Fatal(err)
					}
					wantPts, wantRaws := disk.points, disk.raws
					if m.reset {
						wantPts, wantRaws = m.points, m.raws
					}
					for _, k := range allKeys {
						if got, want := h.Has(k), wantPts[k]; got != want {
							t.Fatalf("op %d handle %d (reset=%v): Has(%s) = %v, oracle %v",
								op, i, m.reset, k[:8], got, want)
						}
						if _, got := h.GetRaw(k + "-raw"); got != wantRaws[k+"-raw"] {
							t.Fatalf("op %d handle %d (reset=%v): GetRaw(%s) found = %v, oracle %v",
								op, i, m.reset, k[:8], got, wantRaws[k+"-raw"])
						}
					}
					wantCov := 0
					for _, k := range allKeys {
						if wantPts[k] {
							wantCov++
						}
					}
					if got := h.Coverage(allKeys); got != wantCov {
						t.Fatalf("op %d handle %d: Coverage = %d, oracle %d", op, i, got, wantCov)
					}
				}
			}
		})
	}
}

// TestWarmCoverageZeroShardReads is the regression pin for the fix this
// PR makes: membership queries on a warm store — Has, GetRaw, Coverage,
// a quiescent SyncIndex, and Reload of a present key — perform zero
// shard-content reads. Only an actual append by another process costs a
// read, and then exactly one tail read.
func TestWarmCoverageZeroShardReads(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 40; i++ {
		k := idxKey(i)
		keys = append(keys, k)
		if err := w.Put(k, sampleResults(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.PutRaw("warm-raw", json.RawMessage(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Coverage(keys); got != len(keys) {
		t.Fatalf("warm coverage = %d, want %d", got, len(keys))
	}
	for _, k := range keys {
		if !s.Has(k) {
			t.Fatalf("warm store missing %s", k[:8])
		}
	}
	if _, ok := s.GetRaw("warm-raw"); !ok {
		t.Fatal("warm store missing raw record")
	}
	if err := s.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Reload(keys[0]); !ok {
		t.Fatal("Reload lost a warm key")
	}
	if got := s.Stats().ShardReads; got != 0 {
		t.Fatalf("warm membership queries performed %d shard reads, want 0", got)
	}

	// An append by another handle costs exactly one tail read to observe.
	extra := idxKey(999)
	if err := w.Put(extra, sampleResults(999)); err != nil {
		t.Fatal(err)
	}
	if s.Has(extra) {
		t.Fatal("unsynced handle sees the foreign append already")
	}
	if err := s.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if !s.Has(extra) {
		t.Fatal("synced handle missed the foreign append")
	}
	if got := s.Stats().ShardReads; got != 1 {
		t.Fatalf("observing one foreign append took %d shard reads, want 1", got)
	}
	// Quiescent again: the next sync is free.
	if err := s.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ShardReads; got != 1 {
		t.Fatalf("quiescent re-sync performed extra shard reads (total %d, want 1)", got)
	}
}

// TestReloadPollsWithoutRescans: a waiter polling Reload on a missing
// key no longer rescans the shard per poll — quiescent polls cost zero
// reads, and the poll after the record lands costs one.
func TestReloadPollsWithoutRescans(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := idxKey(7)
	// Park some unrelated records in the same shard so a rescan would
	// have bytes to read.
	if err := b.Put(idxKey(7+256), sampleResults(1)); err != nil { // same low byte -> may or may not share; ensure same shard:
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := a.Reload(key); ok {
			t.Fatal("Reload found a record that was never put")
		}
	}
	reads := a.Stats().ShardReads
	for i := 0; i < 10; i++ {
		a.Reload(key)
	}
	if got := a.Stats().ShardReads; got != reads {
		t.Fatalf("quiescent Reload polls performed %d extra shard reads, want 0", got-reads)
	}
	if err := b.Put(key, sampleResults(42)); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Reload(key); !ok {
		t.Fatal("Reload missed the record another handle appended")
	}
}

// TestCompactMaintainsIndexOffsets: compaction updates the high-water
// marks, so the compacting handle's next sync reads nothing, and a
// second handle whose offsets now exceed the shrunken shards re-reads
// them idempotently without losing records.
func TestCompactMaintainsIndexOffsets(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 20; i++ {
		k := idxKey(i)
		keys = append(keys, k)
		// Two puts per key: compaction will drop the superseded halves,
		// shrinking every shard.
		if err := a.Put(k, sampleResults(i)); err != nil {
			t.Fatal(err)
		}
		if err := a.Put(k, sampleResults(i+100)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("compaction dropped nothing; the test set up no shrink")
	}
	if err := a.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().ShardReads; got != 0 {
		t.Fatalf("compacting handle re-read %d shards after its own compaction, want 0", got)
	}
	// The other handle sees shrunken shards: offsets reset, full re-read,
	// and every key survives.
	if err := b.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if got := b.Coverage(keys); got != len(keys) {
		t.Fatalf("post-compaction coverage on second handle = %d, want %d", got, len(keys))
	}
}

// TestIndexConcurrentChurn exercises the index under -race: concurrent
// writers, membership readers, Reload pollers and SyncIndex loops over
// two handles on one directory.
func TestIndexConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 4
		perW    = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := a
			if w%2 == 1 {
				h = b
			}
			for i := 0; i < perW; i++ {
				k := idxKey(w*perW + i)
				if err := h.Put(k, sampleResults(i)); err != nil {
					t.Error(err)
					return
				}
				h.Has(k)
				h.Reload(idxKey((w*perW + i + 1) % (workers * perW)))
				if i%10 == 9 {
					if err := h.SyncIndex(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, h := range []*Store{a, b} {
		if err := h.SyncIndex(); err != nil {
			t.Fatal(err)
		}
	}
	var all []string
	for i := 0; i < workers*perW; i++ {
		all = append(all, idxKey(i))
	}
	sort.Strings(all)
	if got := a.Coverage(all); got != len(all) {
		t.Fatalf("handle a coverage after churn = %d, want %d", got, len(all))
	}
	if got := b.Coverage(all); got != len(all) {
		t.Fatalf("handle b coverage after churn = %d, want %d", got, len(all))
	}
}

// TestRawKeysPrefix: RawKeys lists exactly the raw namespace, filtered
// by prefix, sorted.
func TestRawKeysPrefix(t *testing.T) {
	s := NewMemory()
	for _, k := range []string{"job-ticket-b", "job-ticket-a", "other", "job-ticket2"} {
		if err := s.PutRaw(k, json.RawMessage(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(idxKey(1), sampleResults(1)); err != nil {
		t.Fatal(err)
	}
	got := s.RawKeys("job-ticket-")
	want := []string{"job-ticket-a", "job-ticket-b"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("RawKeys = %v, want %v", got, want)
	}
	if n := len(s.RawKeys("")); n != 4 {
		t.Fatalf("RawKeys(\"\") = %d raw keys, want 4 (point keys excluded)", n)
	}
}

// TestReplacedShardScanCountsNothing: a scan that ran against a shard
// replaced between the stat and the open is thrown away, so the records
// and junk it walked must not reach Stats either — the next sync reads
// the replacement from zero and counts them then, once.
func TestReplacedShardScanCountsNothing(t *testing.T) {
	dir := t.TempDir()
	keyA, keyB, keyC := "ab"+fmt.Sprintf("%062x", 1), "ab"+fmt.Sprintf("%062x", 2), "ab"+fmt.Sprintf("%062x", 3)
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(keyA, sampleResults(1)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir) // has read A: a non-zero offset into the shard
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(keyB, sampleResults(2)); err != nil {
		t.Fatal(err)
	}
	path := s.shardPath(keyA)
	stale, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The replacement keeps A's line (so the stale offset lands on a line
	// boundary), drops B, and adds one record and one line of junk.
	lineC, err := s.encode(record{Schema: SchemaVersion, Key: keyC, Results: sampleResults(3)})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	off := s.shardOff[path]
	s.mu.Unlock()
	replacement := append(append(append([]byte(nil), old[:off]...), lineC...), "junk\n"...)
	if err := os.WriteFile(path+".new", replacement, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".new", path); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	err = s.readShardLocked(path, stale)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 1 || st.Skipped != 0 || s.Has(keyC) {
		t.Fatalf("discarded scan leaked into the store: loaded %d skipped %d has(C) %v, want 1, 0, false", st.Loaded, st.Skipped, s.Has(keyC))
	}
	if err := s.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 3 || st.Skipped != 1 || !s.Has(keyC) || s.Has(keyB) {
		t.Fatalf("resync of the replacement: loaded %d skipped %d has(C) %v has(B) %v, want 3, 1, true, false",
			st.Loaded, st.Skipped, s.Has(keyC), s.Has(keyB))
	}
}
