package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"breakhammer/internal/sampling"
	"breakhammer/internal/sim"
)

// sampledSampleResults decorates the fabricated result set with a
// sampling summary, turning it into what a sampled run would store.
func sampledSampleResults(tag int) []sim.MixResult {
	rs := sampleResults(tag)
	rs[0].Sampling = &sampling.Summary{
		Windows:        7,
		DetailedCycles: 70_000,
		FFCycles:       430_000,
		IPC: []sampling.Estimate{
			{Mean: 1.25, Lo: 1.1, Hi: 1.4, N: 7},
			{Mean: 0.5, Lo: 0.45, Hi: 0.55, N: 7},
			{Mean: 0.75, Lo: 0.7, Hi: 0.8, N: 7},
		},
	}
	return rs
}

// TestSampledExactKeysDistinct pins the impersonation guard at the key
// level: enabling sampling (even with default windows) changes the
// store key, so a sampled point can never be served where an exact one
// was requested, and vice versa.
func TestSampledExactKeysDistinct(t *testing.T) {
	exact := sim.FastConfig()
	sampled := sim.FastConfig()
	sampled.Sampling = sampling.Params{Enabled: true}
	if mustKey(t, exact, nil) == mustKey(t, sampled, nil) {
		t.Fatal("sampled and exact configurations share a store key")
	}
}

// TestSampledMarkerOnShardLine checks the record-level marker: a Put of
// sampled results stamps "sampled":true on the shard line, an exact Put
// omits it, and both records — summary included — survive a reopen.
func TestSampledMarkerOnShardLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	exactKey := mustKey(t, sim.FastConfig(), nil)
	sampledCfg := sim.FastConfig()
	sampledCfg.Sampling = sampling.Params{Enabled: true}
	sampledKey := mustKey(t, sampledCfg, nil)

	if err := s.Put(exactKey, sampleResults(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sampledKey, sampledSampleResults(2)); err != nil {
		t.Fatal(err)
	}

	// checkMarkers reads every shard line: the sampled record carries the
	// marker, the exact one does not even carry the field.
	checkMarkers := func(when string) {
		t.Helper()
		markers := map[string]bool{} // key -> sampled marker on its line
		shards, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, shard := range shards {
			raw, err := os.ReadFile(shard)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				var rec struct {
					Key     string `json:"key"`
					Sampled bool   `json:"sampled"`
				}
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("%s: unparseable shard line %q: %v", when, line, err)
				}
				markers[rec.Key] = rec.Sampled
				if rec.Key == exactKey && strings.Contains(line, `"sampled"`) {
					t.Fatalf("%s: exact record carries a sampled marker field", when)
				}
			}
		}
		if markers[exactKey] {
			t.Fatalf("%s: exact record marked sampled", when)
		}
		if !markers[sampledKey] {
			t.Fatalf("%s: sampled record not marked sampled", when)
		}
	}
	checkMarkers("after Put")

	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkMarkers("after reopen")
	rs, ok := reopened.Get(sampledKey)
	if !ok {
		t.Fatal("sampled record lost on reopen")
	}
	if rs[0].Sampling == nil || rs[0].Sampling.Windows != 7 {
		t.Fatalf("sampling summary did not round-trip: %+v", rs[0].Sampling)
	}
	if rs, ok := reopened.Get(exactKey); !ok || rs[0].Sampling != nil {
		t.Fatalf("exact record corrupted on reopen: ok=%v", ok)
	}
}
