package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const sampleTrace = "# sample\n10 0x40 R\n0 0x80 W\n5 0x40\n"

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAndManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.trace")
	writeFile(t, path, sampleTrace)

	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 3 || tr.Hash == "" {
		t.Fatalf("Load = %d records, hash %q", len(tr.Records), tr.Hash)
	}
	m := tr.Manifest
	if m.Records != 3 || m.Reads != 2 || m.Writes != 1 || m.FootprintLines != 2 {
		t.Errorf("manifest = %+v, want 3 records, 2 reads, 1 write, footprint 2", m)
	}
	if m.Hash != tr.Hash || m.Format != "ramulator" || m.Bubbles != 15 {
		t.Errorf("manifest identity = %+v", m)
	}
	if got := m.Instructions(); got != 18 {
		t.Errorf("Instructions = %d, want 18", got)
	}

	// The sidecar was written and ReadManifest serves it without a scan.
	if _, err := os.Stat(ManifestPath(path)); err != nil {
		t.Fatalf("sidecar manifest missing: %v", err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("ReadManifest = %+v, want %+v", got, m)
	}
}

func TestHashIgnoresPathAndCompression(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.trace")
	renamed := filepath.Join(dir, "renamed.trace")
	gzPath := filepath.Join(dir, "same.trace.gz")
	writeFile(t, plain, sampleTrace)
	writeFile(t, renamed, sampleTrace)

	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(sampleTrace))
	gz.Close()
	if err := os.WriteFile(gzPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	t1, err := Load(plain)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Load(renamed)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Load(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Hash != t2.Hash {
		t.Errorf("same content at two paths hashed differently: %s vs %s", t1.Hash, t2.Hash)
	}
	if t1.Hash != t3.Hash {
		t.Errorf("gzipped copy hashed differently: %s vs %s", t1.Hash, t3.Hash)
	}

	// One edited record changes the identity.
	edited := filepath.Join(dir, "edited.trace")
	writeFile(t, edited, "# sample\n10 0x40 R\n0 0x80 W\n5 0x44\n")
	t4, err := Load(edited)
	if err != nil {
		t.Fatal(err)
	}
	if t4.Hash == t1.Hash {
		t.Error("editing a record did not change the content hash")
	}
}

func TestRegistryMemoizesAndRevalidates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.trace")
	writeFile(t, path, sampleTrace)
	r := NewRegistry()

	t1, err := r.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("unchanged file was re-parsed instead of memoized")
	}

	// Rewrite the file (bump mtime defensively for coarse clocks): the
	// registry must notice and re-parse.
	writeFile(t, path, "0x40\n0x80\n")
	past := time.Now().Add(2 * time.Second)
	os.Chtimes(path, past, past)
	t3, err := r.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 || t3.Hash == t1.Hash || len(t3.Records) != 2 {
		t.Error("edited file served from the stale memoized parse")
	}
}

func TestCorruptManifestRederived(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.trace")
	writeFile(t, path, sampleTrace)
	want, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt the sidecar: ReadManifest must fall back to a scan and
	// repair it.
	writeFile(t, ManifestPath(path), "{ not json")
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Manifest {
		t.Errorf("re-derived manifest = %+v, want %+v", got, want.Manifest)
	}
	raw, err := os.ReadFile(ManifestPath(path))
	if err != nil {
		t.Fatal(err)
	}
	var repaired Manifest
	if err := json.Unmarshal(raw, &repaired); err != nil || repaired != want.Manifest {
		t.Errorf("sidecar not repaired: %s (err %v)", raw, err)
	}

	// A stale sidecar (hash from other content) is also re-derived.
	stale := want.Manifest
	stale.Hash = "deadbeef"
	rawStale, _ := json.Marshal(stale)
	writeFile(t, ManifestPath(path), string(rawStale))
	// The stale sidecar passes the size/mtime check only if those fields
	// match; zero them so it cannot.
	stale.Size = 0
	rawStale, _ = json.Marshal(stale)
	writeFile(t, ManifestPath(path), string(rawStale))
	got, err = ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != want.Hash {
		t.Errorf("stale sidecar served: hash %s, want %s", got.Hash, want.Hash)
	}
}

// TestReadManifestDoesNotMaterialiseRecords: deriving a cold trace's
// manifest (no sidecar yet) streams the file; it must not pin the
// decoded record slice in the process-wide registry — that is Load's
// job, paid only when a simulation actually replays the trace.
func TestReadManifestDoesNotMaterialiseRecords(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cold.trace")
	writeFile(t, path, sampleTrace)

	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Records != 3 || m.Hash == "" {
		t.Fatalf("manifest = %+v", m)
	}
	shared.mu.Lock()
	_, pinned := shared.byPath[path]
	shared.mu.Unlock()
	if pinned {
		t.Error("manifest-only derivation pinned the decoded records in the registry")
	}
	// The scan repaired/created the sidecar, so the next read is cheap.
	if _, err := os.Stat(ManifestPath(path)); err != nil {
		t.Errorf("sidecar not written by the manifest-only scan: %v", err)
	}
	// And the streaming hash agrees with the full parse.
	tr, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Hash != m.Hash || tr.Manifest != m {
		t.Errorf("streamed manifest %+v != parsed manifest %+v", m, tr.Manifest)
	}
}

// TestManifestScanMemoizedWithoutSidecar: when the sidecar cannot be
// written (a non-empty directory holds its path, which no rename replaces,
// whatever the user's permissions), repeated manifest reads must be
// served from the registry's memoized scan, not by re-scanning the file
// each time.
func TestManifestScanMemoizedWithoutSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blocked.trace")
	writeFile(t, path, sampleTrace)
	if err := os.MkdirAll(filepath.Join(ManifestPath(path), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}

	m1, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(ManifestPath(path)); err != nil || !st.IsDir() {
		t.Fatalf("the sidecar path no longer holds the blocking directory (err %v)", err)
	}
	// The second read must be a registry hit for the same file state.
	shared.mu.Lock()
	_, memoized := shared.manifests[path]
	shared.mu.Unlock()
	if !memoized {
		t.Fatal("manifest-only scan was not memoized in the registry")
	}
	m2, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Errorf("memoized manifest %+v != first scan %+v", m2, m1)
	}
}

// TestRegistryConcurrentLoadSingleflight: concurrent cold Loads of one
// path share a single scan — every caller gets the same memoized
// *Trace. (Without the in-flight dedup, racing loaders each parse
// their own copy and last-wins memoization hands out distinct ones.)
func TestRegistryConcurrentLoadSingleflight(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.trace")
	writeFile(t, path, sampleTrace)
	r := NewRegistry()

	const n = 8
	traces := make([]*Trace, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			traces[i], errs[i] = r.Load(path)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("loader %d: %v", i, errs[i])
		}
		if traces[i] != traces[0] {
			t.Fatalf("loader %d got a distinct parse (singleflight failed)", i)
		}
	}
}

func TestLoadMissingAndEmpty(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.trace")); err == nil {
		t.Error("Load accepted a missing file")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.trace")
	writeFile(t, path, "# nothing\n")
	if _, err := Load(path); err == nil {
		t.Error("Load accepted an empty trace")
	}
}
