package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"breakhammer/internal/sampling"
	"breakhammer/internal/workload"
)

// TestCanonicalJSONFieldOrderIndependent pins the property the persistent
// experiment store's keys depend on: reordering struct fields in source
// must not change the canonical encoding.
func TestCanonicalJSONFieldOrderIndependent(t *testing.T) {
	type ab struct {
		A int
		B string
		C []float64
	}
	type ba struct {
		C []float64
		B string
		A int
	}
	x, err := canonicalJSON(ab{A: 7, B: "s", C: []float64{1, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := canonicalJSON(ba{A: 7, B: "s", C: []float64{1, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Errorf("canonical JSON depends on field order:\n%s\n%s", x, y)
	}
}

// TestFingerprintNormalizesDefaults: a defaulted knob and its explicit
// default value describe the same simulation and must share a
// fingerprint, or sweeps cache (and run) the point twice.
func TestFingerprintNormalizesDefaults(t *testing.T) {
	base := FastConfig()
	explicit := base
	explicit.BHThreat = 32
	explicit.BHOutlier = 0.65
	explicit.ThrottleAt = "mshr"
	explicit.AddressMap = "mop"
	explicit.RowPressFactor = 1
	a, err := Fingerprint(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(explicit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("explicit Table 2 defaults fingerprint differently from zero values")
	}
	nonDefault := base
	nonDefault.BHThreat = 512
	c, err := Fingerprint(nonDefault, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("fingerprint ignores a non-default BHThreat")
	}
}

func TestFingerprintDistinguishesPoints(t *testing.T) {
	cfg := FastConfig()
	mixes := workload.AttackMixes(1)
	a, err := Fingerprint(cfg, mixes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(cfg, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("fingerprint is not deterministic")
	}
	cfg2 := cfg
	cfg2.NRH = cfg.NRH + 1
	c, err := Fingerprint(cfg2, mixes)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Error("fingerprint ignores NRH")
	}
	d, err := Fingerprint(cfg, workload.BenignMixes(1))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, d) {
		t.Error("fingerprint ignores the mixes")
	}
}

// TestFingerprintTraceContentNotPath pins the trace-identity contract:
// a trace-backed point fingerprints by the trace file's content hash,
// so renaming (or copying) the file preserves the fingerprint, editing
// one record changes it, and the path never appears in the encoding.
func TestFingerprintTraceContentNotPath(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.trace")
	b := filepath.Join(dir, "renamed.trace")
	content := []byte("1 0x10 R\n2 0x20 W\n")
	if err := os.WriteFile(a, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, content, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := FastConfig()
	mixFor := func(path string) []workload.Mix {
		return []workload.Mix{{Name: "TRACE-0", Specs: []workload.Spec{workload.TraceSpec(path, 0)}}}
	}
	fpA, err := Fingerprint(cfg, mixFor(a))
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := Fingerprint(cfg, mixFor(b))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fpA, fpB) {
		t.Error("renaming the trace file changed the fingerprint")
	}
	if bytes.Contains(fpA, []byte("a.trace")) {
		t.Errorf("fingerprint leaks the trace path: %s", fpA)
	}

	// Edit one record: every fingerprint derived from the trace changes.
	edited := filepath.Join(dir, "edited.trace")
	if err := os.WriteFile(edited, []byte("1 0x10 R\n2 0x28 W\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fpE, err := Fingerprint(cfg, mixFor(edited))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fpA, fpE) {
		t.Error("editing a trace record did not change the fingerprint")
	}

	// An unreadable trace file fails loudly instead of keying on an
	// empty hash.
	if _, err := Fingerprint(cfg, mixFor(filepath.Join(dir, "absent.trace"))); err == nil {
		t.Error("Fingerprint accepted a missing trace file")
	}
}

// TestFingerprintPinnedAcrossRowCensus: Config.RowCensus is absent from
// the encoding unless set, so every fingerprint — and every store key —
// that predates the field is unchanged. The hashes were recorded from the
// commit before the field existed; a config that sets it keys apart.
func TestFingerprintPinnedAcrossRowCensus(t *testing.T) {
	base := FastConfig()
	multi := base
	multi.Channels, multi.Mechanism, multi.BreakHammer = 4, "prac", true
	sampled := base
	sampled.Sampling = sampling.Params{Enabled: true}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"fast", base, "0a418550f66136f2ae4f02e182466bf539754341abdfc03a49e9a4a0eca285ab"},
		{"4ch prac+bh", multi, "5c562db40f8d2c8130ca8832e33bb74da7229b2b5040845b040404737bcb5b7d"},
		{"sampled", sampled, "003f36752e529a27d9570d1bb4547b6dd76f005725f52ece383f4306db2abb25"},
	} {
		fp, err := Fingerprint(tc.cfg, workload.AttackMixes(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(fp)); got != tc.want {
			t.Errorf("%s: fingerprint hash %s, want the pre-census %s", tc.name, got, tc.want)
		}
		tc.cfg.RowCensus = true
		withCensus, err := Fingerprint(tc.cfg, workload.AttackMixes(1))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(fp, withCensus) {
			t.Errorf("%s: fingerprint ignores RowCensus", tc.name)
		}
	}
}
