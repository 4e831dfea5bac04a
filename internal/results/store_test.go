package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"breakhammer/internal/core"
	"breakhammer/internal/memctrl"
	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
	"breakhammer/internal/workload"
)

// sampleResults fabricates a realistic result set (histograms, BreakHammer
// stats, per-channel controller stats) without running a simulation.
func sampleResults(tag int) []sim.MixResult {
	h := stats.NewLatencyHistogram()
	for _, ns := range []float64{12, 12, 340, 7000, 1e8} {
		h.Add(ns + float64(tag))
	}
	r := sim.MixResult{
		Result: sim.Result{
			MixName:  fmt.Sprintf("mix-%d", tag),
			Cycles:   123456 + int64(tag),
			Seconds:  0.0017,
			IPC:      []float64{1.25, 0.5, 0.75},
			Insts:    []int64{100000, 40000, 60000},
			Benign:   []bool{true, true, false},
			RBMPKI:   []float64{1.5, 22.25, 90},
			Latency:  []*stats.Histogram{h, stats.NewLatencyHistogram()},
			EnergyNJ: 4242.5,
			Actions:  17,
			MC:       memctrl.Stats{TotalACTs: 999, VRRs: 3, DemandACTs: []int64{5, 6}},
			MCChannels: []memctrl.Stats{
				{TotalACTs: 500}, {TotalACTs: 499},
			},
			BH: &core.Stats{
				ActionsObserved: 17,
				SuspectEvents:   []int64{0, 0, 4},
				SuspectWindows:  []int64{0, 0, 9},
				WindowRotations: 3,
			},
			BenignFinished: true,
		},
		WS:         1.75,
		Unfairness: 2.5,
	}
	return []sim.MixResult{r}
}

func mustKey(t *testing.T, cfg sim.Config, mixes []workload.Mix) string {
	t.Helper()
	key, err := Key(cfg, mixes)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, sim.FastConfig(), workload.AttackMixes(1))
	want := sampleResults(1)
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("write-through read differs from what was put")
	}

	// Reopen: the results must survive the disk round trip bit-for-bit.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the results:\n got %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Loaded != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want Loaded=1 Hits=1", st)
	}
}

// TestKeyStability: the key must be a pure function of the simulation
// content — deterministic across calls and processes, sensitive to every
// configuration field and to the mixes, insensitive to anything else.
// (Field-reordering independence of the underlying encoding is pinned by
// sim.TestCanonicalJSONFieldOrderIndependent.)
func TestKeyStability(t *testing.T) {
	cfg := sim.FastConfig()
	mixes := workload.AttackMixes(1)
	k1 := mustKey(t, cfg, mixes)
	k2 := mustKey(t, cfg, mixes)
	if k1 != k2 {
		t.Error("key is not deterministic")
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex SHA-256", k1)
	}
	cfg2 := cfg
	cfg2.BreakHammer = !cfg.BreakHammer
	if mustKey(t, cfg2, mixes) == k1 {
		t.Error("key ignores BreakHammer pairing")
	}
	cfg3 := cfg
	cfg3.Seed++
	if mustKey(t, cfg3, mixes) == k1 {
		t.Error("key ignores the seed")
	}
	if mustKey(t, cfg, workload.BenignMixes(1)) == k1 {
		t.Error("key ignores the mixes")
	}
}

// TestCorruptedShardRecovery: garbage lines, torn (truncated) records and
// stale-schema records must be skipped, not fatal, and must not take
// neighbouring records down with them.
func TestCorruptedShardRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.FastConfig()
	keyA := mustKey(t, cfg, workload.AttackMixes(1))
	keyB := mustKey(t, cfg, workload.BenignMixes(1))
	if err := s.Put(keyA, sampleResults(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyB, sampleResults(2)); err != nil {
		t.Fatal(err)
	}

	// Vandalise every shard: prepend garbage, append a stale-schema record
	// and a torn half-record.
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards written (err=%v)", err)
	}
	for _, shard := range shards {
		orig, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		vandalised := append([]byte("{not json at all\n"), orig...)
		vandalised = append(vandalised, []byte(`{"schema":999,"key":"stale","results":[]}`+"\n")...)
		vandalised = append(vandalised, []byte(`{"schema":1,"key":"torn","res`)...)
		if err := os.WriteFile(shard, vandalised, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupted shard made Open fail: %v", err)
	}
	for _, key := range []string{keyA, keyB} {
		if _, ok := s2.Get(key); !ok {
			t.Errorf("valid record %s lost to neighbouring corruption", key[:8])
		}
	}
	if st := s2.Stats(); st.Skipped == 0 {
		t.Error("corrupt lines were not counted as skipped")
	}
	if s2.Len() != 2 {
		t.Errorf("Len = %d, want 2 (stale/torn records must not load)", s2.Len())
	}
}

// TestNonCanonicalHistogramSkipped: a histogram is read back only in the
// bytes its MarshalJSON writes. A shard line whose histogram carries the
// same values, re-indented onto one line, is still valid JSON, but it is
// counted as skipped and its point is not served (it recomputes), while
// the untouched record beside it loads.
func TestNonCanonicalHistogramSkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.FastConfig()
	keyA := mustKey(t, cfg, workload.AttackMixes(1))
	keyB := mustKey(t, cfg, workload.BenignMixes(1))
	resA := sampleResults(1)
	for key, rs := range map[string][]sim.MixResult{keyA: resA, keyB: sampleResults(2)} {
		if err := s.Put(key, rs); err != nil {
			t.Fatal(err)
		}
	}
	canonical, err := json.Marshal(resA[0].Latency[0])
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canonical, "", " "); err != nil {
		t.Fatal(err)
	}
	oneLine := bytes.ReplaceAll(indented.Bytes(), []byte("\n"), []byte(" "))
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	edited := 0
	for _, shard := range shards {
		data, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(data, canonical); n > 0 {
			edited += n
			if err := os.WriteFile(shard, bytes.ReplaceAll(data, canonical, oneLine), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if edited != 1 {
		t.Fatalf("found point A's histogram %d times in the shards, want once", edited)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Loaded != 1 || st.Skipped != 1 {
		t.Errorf("loaded %d, skipped %d; want the re-indented record skipped", st.Loaded, st.Skipped)
	}
	if _, ok := s2.Get(keyA); ok {
		t.Error("the record with a re-indented histogram is served")
	}
	if _, ok := s2.Get(keyB); !ok {
		t.Error("the untouched record was lost")
	}
}

// TestConcurrentWriters: hammer one store from many goroutines; every
// record must survive to a reopen intact.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 10
	cfg := sim.FastConfig()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c := cfg
				c.Seed = int64(w*perWriter + i + 1)
				key, err := Key(c, nil)
				if err != nil {
					errs <- err
					return
				}
				if err := s.Put(key, sampleResults(w*perWriter+i)); err != nil {
					errs <- err
					return
				}
				s.Get(key) // interleave reads
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Len(), writers*perWriter; got != want {
		t.Errorf("reopened store holds %d records, want %d", got, want)
	}
}

func TestMemoryStoreAndReset(t *testing.T) {
	s := NewMemory()
	key := mustKey(t, sim.FastConfig(), nil)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store claims a hit")
	}
	if err := s.Put(key, sampleResults(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("memory store lost a record")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Written != 0 {
		t.Errorf("stats = %+v, want Hits=1 Misses=1 Written=0", st)
	}
	s.Reset()
	if _, ok := s.Get(key); ok {
		t.Error("Reset did not drop the in-memory entries")
	}
}

func TestPutRejectsEmpty(t *testing.T) {
	s := NewMemory()
	if err := s.Put("", sampleResults(0)); err == nil {
		t.Error("empty key accepted")
	}
	if err := s.Put("abc", nil); err == nil {
		t.Error("nil results accepted")
	}
}

// TestRawRecordRoundTrip: the raw namespace (rendered tables for
// instrumented experiments) shares the store's durability and atomicity.
func TestRawRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, sim.FastConfig(), nil) + "-sec5"
	want := json.RawMessage(`{"title":"T","rows":[["a","b"]]}`)
	if err := s.PutRaw(key, want); err != nil {
		t.Fatal(err)
	}
	// Raw and point namespaces must not alias.
	if _, ok := s.Get(key); ok {
		t.Error("raw record visible through the point namespace")
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.GetRaw(key)
	if !ok {
		t.Fatal("raw record lost across reopen")
	}
	if string(got) != string(want) {
		t.Errorf("raw round trip changed the payload: %s", got)
	}
	if err := s.PutRaw(key, nil); err == nil {
		t.Error("empty raw payload accepted")
	}
}

func TestPutRejectsEmptySlice(t *testing.T) {
	// An empty slice would serialize without the omitempty results field
	// and load as corrupt; Put must refuse it up front.
	if err := NewMemory().Put("abc", []sim.MixResult{}); err == nil {
		t.Error("empty results slice accepted")
	}
}
