package results

import (
	"bufio"
	"bytes"
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
// directory through random interleavings of Put/PutRaw/Reload/SyncIndex/
// Reset/claim churn and a third writer's raw appends, and asserts, at
// every checkpoint, that Has/GetRaw/Coverage agree exactly with a fresh
// linear rescan of the shards (or, for a handle that called Reset, with
// its own post-reset writes). The third writer appends corrupt lines to
// the handles' shard, and records for its own keys — sometimes in two
// halves, with any number of operations and checkpoints in between — to
// a shard the handles never write, so a pending half glues onto no
// handle's record. The incremental reader's corrupt-line and torn-tail
// rules thereby run under interleaving, not only at Open.
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
			thirdKeys := make([]string, 4)
			for i := range thirdKeys {
				thirdKeys[i] = fmt.Sprintf("ff%062x", i)
			}
			checkKeys := append(append([]string(nil), allKeys...), thirdKeys...)
			thirdShard := filepath.Join(dir, "shard-ff.jsonl")
			var pendingTail []byte // the rest of a half-appended record
			rawAppend := func(path string, b []byte) {
				f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write(b); err != nil {
					t.Fatal(err)
				}
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
					h.Reload(checkKeys[rng.Intn(len(checkKeys))])
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
				case 7: // third writer: finish a half-appended record, or
					// append a corrupt line or the first half of a record
					switch {
					case pendingTail != nil:
						rawAppend(thirdShard, pendingTail)
						pendingTail = nil
					case rng.Intn(2) == 0:
						rawAppend(h.shardPath(key), []byte("{corrupt\n"))
					default:
						line, err := json.Marshal(record{Schema: SchemaVersion,
							Key: thirdKeys[rng.Intn(len(thirdKeys))], Results: sampleResults(rng.Intn(5))})
						if err != nil {
							t.Fatal(err)
						}
						line = append(line, '\n')
						cut := 1 + rng.Intn(len(line)-2) // inside the JSON: the half never parses
						rawAppend(thirdShard, line[:cut])
						pendingTail = line[cut:]
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
					for _, k := range checkKeys {
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
					for _, k := range checkKeys {
						if wantPts[k] {
							wantCov++
						}
					}
					if got := h.Coverage(checkKeys); got != wantCov {
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

// TestShrunkShardIsRereadFromZero: shards only grow, so a shard found
// shorter than a handle's high-water mark was truncated by hand. The
// handle re-reads it from zero and keeps every record still on disk.
func TestShrunkShardIsRereadFromZero(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.Put(idxKey(i), sampleResults(i)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := Open(dir) // its mark sits at the end of all four records
	if err != nil {
		t.Fatal(err)
	}
	path := a.shardPath(idxKey(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the first record only, then append a new one: the shard is
	// still shorter than b's mark, so b must not seek past its end.
	first := data[:bytes.IndexByte(data, '\n')+1]
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(idxKey(9), sampleResults(9)); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(path); st.Size() >= int64(len(data)) {
		t.Fatalf("shard did not shrink: %d >= %d bytes", st.Size(), len(data))
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SyncIndex(); err != nil {
		t.Fatal(err)
	}
	if !b.Has(idxKey(9)) {
		t.Fatal("handle with a mark past the shrunk shard's end missed the new record")
	}
	if !fresh.Has(idxKey(0)) || fresh.Has(idxKey(1)) || !fresh.Has(idxKey(9)) {
		t.Fatal("fresh handle does not see exactly the records left on disk")
	}
	if got := b.Stats().ShardReads; got != 1 {
		t.Fatalf("re-reading the shrunk shard took %d reads, want 1", got)
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

// TestShardsOnlyGrow pins the store's append-only invariant: after every
// operation that touches the cache directory, each shard's earlier
// contents are a byte prefix of its current contents, no shard
// disappears, and the directory holds nothing but shards and claim
// files — no temp file, no marker.
func TestShardsOnlyGrow(t *testing.T) {
	dir := t.TempDir()
	snaps := map[string][]byte{}
	check := func(after string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() && name == "claims" {
				claims, err := os.ReadDir(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range claims {
					if c.IsDir() || filepath.Ext(c.Name()) != ".claim" {
						t.Fatalf("after %s: unexpected %q under claims/", after, c.Name())
					}
				}
				continue
			}
			if ok, _ := filepath.Match("shard-*.jsonl", name); !ok || e.IsDir() {
				t.Fatalf("after %s: unexpected %q in the cache directory", after, name)
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, snaps[name]) {
				t.Fatalf("after %s: %s was rewritten, not appended to", after, name)
			}
			snaps[name] = data
			seen[name] = true
		}
		for name := range snaps {
			if !seen[name] {
				t.Fatalf("after %s: %s disappeared", after, name)
			}
		}
	}

	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keyA, keyB := testKey, "ab"+testKey[2:]
	var claim *Claim
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"Put", func() error { return a.Put(keyA, sampleResults(1)) }},
		{"Put to another shard", func() error { return a.Put(keyB, sampleResults(2)) }},
		{"PutRaw", func() error { return a.PutRaw(keyA+"-raw", json.RawMessage(`{"v":1}`)) }},
		{"RecordElapsed", func() error { return a.RecordElapsed(keyA, time.Second) }},
		{"claim take", func() (err error) { claim, err = a.TryClaim(keyA, time.Minute); return err }},
		{"claim heartbeat", func() error { claim.Heartbeat(); return nil }},
		{"claim release", func() error { claim.Release(); return nil }},
		{"second handle's SyncIndex", b.SyncIndex},
		{"second handle's Reload", func() error { b.Reload(keyB); return nil }},
		{"Reset+Put", func() error { a.Reset(); return a.Put(keyA, sampleResults(3)) }},
		{"reopen+Put", func() error {
			c, err := Open(dir)
			if err != nil {
				return err
			}
			return c.Put(keyB, sampleResults(4))
		}},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name)
	}
	if len(snaps) != 2 {
		t.Fatalf("steps wrote %d shards, want 2", len(snaps))
	}
}
