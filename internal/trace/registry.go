package trace

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Manifest summarises one trace without requiring a scan: the registry
// derives it on first load and persists it as a sidecar JSON file next to
// the trace (ManifestPath), so sweeps and servers can report a trace's
// scale cheaply. Hash is authoritative — it is what simulation
// fingerprints embed — while Size/ModTimeUnixNano only validate the
// sidecar against the file it describes.
type Manifest struct {
	Hash            string `json:"hash"`            // SHA-256 over the decompressed bytes, hex
	Format          string `json:"format"`          // detected dialect: "ramulator" or "address"
	Records         int    `json:"records"`         // records per replay loop
	Reads           int64  `json:"reads"`           // load records
	Writes          int64  `json:"writes"`          // store records
	FootprintLines  int    `json:"footprint_lines"` // distinct cache lines touched
	Bubbles         int64  `json:"bubbles"`         // total non-memory instructions per loop
	Size            int64  `json:"size"`            // on-disk (possibly compressed) byte size
	ModTimeUnixNano int64  `json:"mtime_unix_nano"` // trace file mtime at derivation
}

// Instructions returns the instructions one replay loop retires (each
// record is one memory instruction plus its preceding bubbles).
func (m Manifest) Instructions() int64 { return m.Bubbles + int64(m.Records) }

// MPKI returns the trace's memory accesses per kilo-instruction.
func (m Manifest) MPKI() float64 {
	if insts := m.Instructions(); insts > 0 {
		return float64(m.Records) / float64(insts) * 1000
	}
	return 0
}

// Summary renders the one-line scale report the commands log for each
// trace file.
func (m Manifest) Summary() string {
	return fmt.Sprintf("%d records (%d writes), footprint %d lines, MPKI %.1f, sha256 %.12s",
		m.Records, m.Writes, m.FootprintLines, m.MPKI(), m.Hash)
}

// Trace is one loaded trace: the shared, immutable record slice plus its
// identity and summary. Replay it through NewCursor — never by mutating
// shared state.
type Trace struct {
	Path     string   // the path Load resolved (informational only)
	Hash     string   // SHA-256 over the decompressed bytes, hex
	Records  []Record // shared by every cursor; must not be mutated
	Manifest Manifest
}

// Registry memoizes loaded traces by path so that N cores, repeated
// fingerprints and concurrent sweep workers parse each file once. Entries
// revalidate against the file's (size, mtime): editing a trace in place
// is picked up on the next Load, while renaming it simply creates a new
// entry with the same content hash. All methods are safe for concurrent
// use.
type Registry struct {
	mu      sync.Mutex
	byPath  map[string]*Trace
	statted map[string]statKey

	// Manifest-only scans are memoized separately from full parses, so
	// key derivation against an unwritable trace directory (sidecar
	// writes silently failing) still scans each file once per content
	// state, not once per coverage poll.
	manifests map[string]Manifest
	manStat   map[string]statKey

	// loading dedups concurrent cold Loads of one path (a sweep pool's
	// workers all reaching NewSource at once): one goroutine scans,
	// the rest wait on its result instead of each parsing — and
	// transiently holding — their own copy of a multi-gigabyte trace.
	loading map[string]*loadCall
}

// loadCall is one in-flight scan other Load callers wait on.
type loadCall struct {
	done chan struct{}
	t    *Trace
	err  error
}

// statKey is the cheap freshness check guarding a memoized parse.
type statKey struct {
	size  int64
	mtime int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byPath:    make(map[string]*Trace),
		statted:   make(map[string]statKey),
		manifests: make(map[string]Manifest),
		manStat:   make(map[string]statKey),
		loading:   make(map[string]*loadCall),
	}
}

// shared is the process-wide registry behind the package-level Load.
var shared = NewRegistry()

// Shared returns the process-wide registry. Simulation wiring and
// fingerprinting both go through it, so one parse serves every consumer
// of a trace file in the process.
func Shared() *Registry { return shared }

// Load reads, hashes and memoizes the trace at path (see Registry).
func Load(path string) (*Trace, error) { return shared.Load(path) }

// Load returns the trace at path, parsing and hashing it on first use or
// when the file changed since the memoized parse. The sidecar manifest is
// (re)written whenever the trace is actually scanned; sidecar write
// failures (e.g. a read-only directory) are ignored — the manifest is an
// optimisation, never a dependency.
func (r *Registry) Load(path string) (*Trace, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	key := statKey{size: st.Size(), mtime: st.ModTime().UnixNano()}
	r.mu.Lock()
	if t, ok := r.byPath[path]; ok && r.statted[path] == key {
		r.mu.Unlock()
		return t, nil
	}
	if c, ok := r.loading[path]; ok {
		// Another goroutine is scanning this path: wait for its result
		// instead of duplicating a potentially huge parse. (If the file
		// changed while it scanned, the next Load revalidates.)
		r.mu.Unlock()
		<-c.done
		return c.t, c.err
	}
	c := &loadCall{done: make(chan struct{})}
	r.loading[path] = c
	r.mu.Unlock()

	t, err := scan(path, key, true)
	if err == nil {
		writeManifest(ManifestPath(path), t.Manifest)
	}

	r.mu.Lock()
	if err == nil {
		r.byPath[path] = t
		r.statted[path] = key
	}
	delete(r.loading, path)
	r.mu.Unlock()
	c.t, c.err = t, err
	close(c.done)
	return t, err
}

// scan performs the real work of Load and of a cold ReadManifest: decode
// (with gzip sniffing), hash the decompressed bytes, and derive the
// manifest. With keep false the decoded records are not retained
// (Trace.Records stays nil): transient memory is then proportional to the
// trace's *distinct-line footprint* (the exact-count set behind
// FootprintLines), not its record count — far smaller for the looping
// traces this simulator replays, though still linear in footprint for
// pathologically wide traces.
func scan(path string, key statKey, keep bool) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()

	stream, closer, err := maybeGunzip(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if closer != nil {
		defer closer.Close()
	}
	// The hash is computed over the decompressed bytes, so a trace and
	// its gzipped copy share one identity (and one set of store keys).
	h := sha256.New()
	var (
		recs  []Record
		accum manifestAccum
	)
	format, _, err := decodeStream(io.TeeReader(stream, h), FormatAuto, func(rec Record) {
		if keep {
			recs = append(recs, rec)
		}
		accum.add(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	sum := hex.EncodeToString(h.Sum(nil))
	return &Trace{
		Path:     path,
		Hash:     sum,
		Records:  recs,
		Manifest: accum.finish(sum, format, key),
	}, nil
}

// manifestAccum derives a Manifest incrementally, one record at a time,
// so manifest-only scans never hold the decoded records.
type manifestAccum struct {
	records int
	reads   int64
	writes  int64
	bubbles int64
	lines   map[uint64]struct{}
}

// add folds one record into the summary.
func (a *manifestAccum) add(rec Record) {
	if a.lines == nil {
		a.lines = make(map[uint64]struct{})
	}
	a.records++
	if rec.Write {
		a.writes++
	} else {
		a.reads++
	}
	a.bubbles += rec.Bubbles
	a.lines[rec.Line] = struct{}{}
}

// finish assembles the Manifest from the accumulated summary.
func (a *manifestAccum) finish(sum string, format Format, key statKey) Manifest {
	return Manifest{
		Hash:            sum,
		Format:          format.String(),
		Records:         a.records,
		Reads:           a.reads,
		Writes:          a.writes,
		FootprintLines:  len(a.lines),
		Bubbles:         a.bubbles,
		Size:            key.size,
		ModTimeUnixNano: key.mtime,
	}
}

// ManifestPath returns the sidecar path the registry persists a trace's
// manifest under.
func ManifestPath(tracePath string) string { return tracePath + ".manifest.json" }

// ReadManifest returns the trace's manifest, from the sidecar when it is
// present, parseable and still matches the trace file's size and mtime —
// otherwise by re-deriving it (and repairing the sidecar) from the
// registry's memoized parse when one is current, or from a streaming
// manifest-only scan that never materialises the records. This is the
// cheap path for reporting a trace's scale and deriving content hashes:
// a warm sidecar costs one stat and a small JSON read; even a cold one
// costs a single pass of I/O, not resident memory.
func ReadManifest(tracePath string) (Manifest, error) {
	st, err := os.Stat(tracePath)
	if err != nil {
		return Manifest{}, fmt.Errorf("trace: %w", err)
	}
	key := statKey{size: st.Size(), mtime: st.ModTime().UnixNano()}
	if raw, err := os.ReadFile(ManifestPath(tracePath)); err == nil {
		var m Manifest
		if json.Unmarshal(raw, &m) == nil && m.Hash != "" && m.Records > 0 &&
			m.Size == key.size && m.ModTimeUnixNano == key.mtime {
			return m, nil
		}
		// Corrupt or stale sidecar: fall through, re-derive, repair.
	}
	m, ok := shared.cachedManifest(tracePath, key)
	if !ok {
		t, err := scan(tracePath, key, false)
		if err != nil {
			return Manifest{}, err
		}
		m = t.Manifest
		shared.rememberManifest(tracePath, key, m)
	}
	writeManifest(ManifestPath(tracePath), m)
	return m, nil
}

// cachedManifest serves a manifest from the memoized full parse or a
// memoized manifest-only scan, when either is still current for the
// observed file state.
func (r *Registry) cachedManifest(path string, key statKey) (Manifest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byPath[path]; ok && r.statted[path] == key {
		return t.Manifest, true
	}
	if m, ok := r.manifests[path]; ok && r.manStat[path] == key {
		return m, true
	}
	return Manifest{}, false
}

// rememberManifest memoizes a manifest-only scan.
func (r *Registry) rememberManifest(path string, key statKey, m Manifest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.manifests[path] = m
	r.manStat[path] = key
}

// ContentHash returns the trace's content identity without
// materialising its records: one stat plus a small JSON read when the
// sidecar manifest is warm, a full scan (which also writes the sidecar)
// otherwise. Key derivation and coverage polling go through this —
// loading a multi-gigabyte trace's records belongs to simulation start,
// not to asking what a simulation would be called.
func ContentHash(path string) (string, error) {
	m, err := ReadManifest(path)
	if err != nil {
		return "", err
	}
	return m.Hash, nil
}

// ReportManifests reads (or derives) each trace's manifest and returns
// one "trace <path>: <summary>" line per file, failing on the first
// unreadable trace. It is the shared startup pass the CLIs run over
// their trace flags: validate every file before simulating anything,
// and report each one's scale from the (cheap, sidecar-backed)
// manifest.
func ReportManifests(paths []string) ([]string, error) {
	lines := make([]string, 0, len(paths))
	for _, p := range paths {
		m, err := ReadManifest(p)
		if err != nil {
			return nil, err
		}
		lines = append(lines, fmt.Sprintf("trace %s: %s", p, m.Summary()))
	}
	return lines, nil
}

// writeManifest persists the sidecar atomically (write + rename), best
// effort.
func writeManifest(path string, m Manifest) {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return
	}
	if os.Rename(tmp, path) != nil {
		os.Remove(tmp)
	}
}
