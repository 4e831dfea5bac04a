package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"breakhammer/internal/sim"
	"breakhammer/internal/stats"
)

// parentStore is a recorded shard: two exact points, one sampled point and
// one raw table from real simulations at results schema 6, plus records
// of schemas 5, 4 and 3 (lines the older code wrote), a garbage line and
// a torn tail. It was first written by the commit before stats.Histogram's
// JSON codec was rewritten by hand (92107d9), and re-recorded with the
// schema-5 and schema-6 bumps. The points are single-channel (the exact
// ones are HHMM-0 bare and HHMA-0 with BreakHammer alone, 12 000
// instructions; the sampled one is HHHA-0 aqua+BH at N_RH 128, 40 000
// instructions, windows of 2 000/6 000/16 000 cycles; all FastConfig with
// a 30 000-cycle throttling window), so the schema-6 results are the
// schema-5 bytes. It is a recording — regenerate it only with a schema
// bump.
const parentStore = "testdata/parent-store"

// TestParentWrittenStoreReplays is the cross-version contract of the
// codec: a recorded store loads with its recorded counts — older schemas
// skipped, not misread — and re-Putting every decoded record writes back
// the very bytes that were recorded, so a cache directory moves between
// revisions of one schema in either direction without a point
// re-simulating.
func TestParentWrittenStoreReplays(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join(parentStore, "shard-ab.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-ab.jsonl"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The four schema-6 records load; the schema-5, schema-4 and
	// schema-3 records, the garbage line and the torn tail are skipped.
	if st := s.Stats(); st.Loaded != 4 || st.Skipped != 5 {
		t.Fatalf("loaded %d, skipped %d; the recording loads 4 and skips 5", st.Loaded, st.Skipped)
	}

	rewritten, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, line := range bytes.SplitAfter(fixture, []byte("\n")) {
		var head struct {
			Schema int
			Key    string
			Raw    json.RawMessage
		}
		if json.Unmarshal(line, &head) != nil || head.Schema != SchemaVersion {
			continue
		}
		want = append(want, line)
		if head.Raw != nil {
			raw, ok := s.GetRaw(head.Key)
			if !ok {
				t.Fatalf("raw record %.12s not loaded", head.Key)
			}
			err = rewritten.PutRaw(head.Key, raw)
		} else {
			rs, ok := s.Get(head.Key)
			if !ok {
				t.Fatalf("point record %.12s not loaded", head.Key)
			}
			err = rewritten.Put(head.Key, rs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(rewritten.Dir(), "shard-ab.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bytes.SplitAfter(got, []byte("\n"))
	for i, line := range want {
		if i >= len(gotLines) || !bytes.Equal(gotLines[i], line) {
			t.Fatalf("record %d re-Put differs from the line the parent wrote", i)
		}
	}
}

// sweepSizedResults fabricates one point of a sweep-sized store: six mixes
// of four threads, each thread's latencies spread the way a simulated
// mix's are (a few hundred distinct buckets, the largest near 2.7 µs).
func sweepSizedResults(rng *rand.Rand, point int) []sim.MixResult {
	rs := make([]sim.MixResult, 6)
	for m := range rs {
		r := sampleResults(point*10 + m)[0]
		r.Latency = nil
		for thread := 0; thread < 4; thread++ {
			h := stats.NewLatencyHistogram()
			for i := 0; i < 1500; i++ {
				h.Add(20 + rng.ExpFloat64()*180)
			}
			h.Add(2700)
			r.Latency = append(r.Latency, h)
		}
		rs[m] = r
	}
	return rs
}

// TestOpenAllocationBudget keeps Open's cost tied to the bytes it reads.
// Decoding each of this store's 408 histograms into a dense 16 384-bucket
// array — what Open did before histograms were sized by their content —
// allocates 51 MiB for the arrays alone (95 MiB in all, measured at
// 92107d9, for 2.6 MB of shards); Open takes 24 MiB today (33 MiB under
// the race detector), most of it the bucket slices growing as the
// string-sorted keys arrive.
func TestOpenAllocationBudget(t *testing.T) {
	const budget = 40 << 20
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for point := 0; point < 17; point++ {
		key := fmt.Sprintf("%02x%062d", point*15, point)
		if err := s.Put(key, sweepSizedResults(rng, point)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reopened, err := Open(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 17 {
		t.Fatalf("reopened store holds %d records, want 17", reopened.Len())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Open of a 17-point store allocated %.1f MiB, budget %d MiB", float64(got)/(1<<20), budget>>20)
	} else {
		t.Logf("Open of a 17-point store allocated %.1f MiB", float64(got)/(1<<20))
	}
}
