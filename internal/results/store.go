// Package results implements the persistent, content-addressed experiment
// store behind the sweep orchestrator: every simulated configuration
// point (full sim.Config + workload mixes + schema version) is keyed by a
// stable hash and persisted as JSON lines, so repeated or interrupted
// sweeps only pay for points they have never computed.
//
// Layout: the cache directory holds shards named "shard-xx.jsonl", where
// xx is the first byte of the key in hex. Each line is one self-contained
// record {schema, key, results}. Shards only grow: records are appended
// in a single write (atomic on POSIX for append-mode files) and never
// rewritten or deleted. Loads tolerate torn or corrupted lines by
// skipping them — a crash mid-write costs at most the record being
// written and the next one appended to its shard, which lands on the
// torn line. Records whose schema version differs from SchemaVersion
// are ignored at load, which is how code changes that alter simulation
// semantics invalidate stale caches.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"breakhammer/internal/sim"
	"breakhammer/internal/workload"
)

// SchemaVersion is baked into every record and every key. Bump it when a
// change to the simulator alters what a stored result means (new metrics,
// semantic fixes); old shards are then skipped at load instead of serving
// stale numbers.
//
// Version history:
//
//	7: memctrl.Stats.GatedACTs counts, at issue, the demand activations
//	   whose row the ActGate (BlockHammer) held past the request's
//	   arrival, instead of every rejected poll of the gate — a count that
//	   depended on how often a controller asked; the simulation itself is
//	   unchanged, but stored BlockHammer records carry the old count.
//	6: a multi-channel cycle delivers each channel's fills, latency
//	   reports and activations inline, during that channel's tick,
//	   instead of buffering them to the end of the cycle, which re-times
//	   multi-channel simulations; single-channel results are unchanged,
//	   but stored multi-channel records must not be served.
//	5: known-wrong behaviours fixed in one deliberate shift, Result's shape
//	   unchanged. Fast-forward activations enter through the channels'
//	   activate hooks (memctrl.Controller.Activated), so BreakHammer hears
//	   of them before the mechanism, as in detailed spans, and the row
//	   census counts them; fast-forward steps end at throttling-window
//	   boundaries whether or not BreakHammer is on; LLC writebacks belong
//	   to no thread (-1) instead of thread 0; the LLC's refusal counters
//	   count episodes, not attempts; the DRAM device keeps tWTR_L/tCCD_L
//	   per bank group; MisraGries.Observe returns the key's count, so
//	   Graphene and AQUA no longer trigger one activation late; and a
//	   sampled BlockHammer run is refused rather than run without its gate.
//	4: interval-sampled simulation (internal/sampling): sim.Result
//	   gained the Sampling summary, sim.MixResult the WS/Unfairness
//	   confidence bands, and records the top-level "sampled" marker.
//	   Sampling parameters joined sim.Fingerprint, so sampled and exact
//	   points key separately; the bump retires records whose JSON shape
//	   predates the marker so an approximate result can never decode
//	   into — and impersonate — an exact one.
//	3: BreakHammer stats gained the cumulative AttributedScore blame
//	   ledger (per-thread, never reset), so stored Result JSON changed
//	   shape; records written before the ledger existed would silently
//	   decode it as empty.
//	2: multi-channel ticking became a cycle batch (cross-channel side
//	   effects drain at the barrier in channel-index order), which
//	   slightly re-times multi-channel simulations; pre-batch
//	   multi-channel records are unreproducible and must not be served.
//	1: initial persistent store.
const SchemaVersion = 7

// Key returns the content address of one experiment point: a hex SHA-256
// over the schema version and the canonical fingerprint of (config,
// mixes). The fingerprint is field-order independent (see
// sim.Fingerprint), so reordering struct fields in source does not orphan
// an existing cache.
func Key(cfg sim.Config, mixes []workload.Mix) (string, error) {
	fp, err := sim.Fingerprint(cfg, mixes)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "schema:%d|", SchemaVersion)
	h.Write(fp)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Stats counts store traffic since Open.
type Stats struct {
	Hits    int64 // Get calls answered from the store
	Misses  int64 // Get calls that found nothing
	Written int64 // records persisted by Put
	// Loaded counts the current-schema record lines read from the shards,
	// by Open and by every later Reload or SyncIndex that found new bytes
	// — superseded duplicates and lines re-read after a shard shrank
	// included. Reset zeroes it.
	Loaded int64
	// Skipped counts what those same reads ignored: corrupt or
	// stale-schema lines, plus one per read that stopped before an
	// unterminated trailing line (a torn write, or an append in flight
	// that a later read picks up whole).
	Skipped int64
	// ShardReads counts shard-content reads performed after Open: tail
	// reads by Reload and SyncIndex when a shard grew since it was last
	// read. A warm store answering membership queries — Has, Coverage —
	// performs zero; the regression tests pin that.
	ShardReads int64
}

// Store is a write-through results cache: one in-memory table per
// namespace in front of JSON-lines shards on disk, kept current by one
// incremental shard reader (see index.go), so membership queries never
// touch the shards. The zero value is not usable; construct with Open or
// NewMemory. All methods are safe for concurrent use.
type Store struct {
	dir string // "" = memory-only

	mu         sync.Mutex
	mem        map[string][]sim.MixResult // simulation-point namespace
	rawMem     map[string]json.RawMessage // raw namespace
	shardOff   map[string]int64           // shard path -> bytes already read
	inflight   map[string]bool            // keys claimed by TryClaim and not yet released
	reset      bool                       // Reset was called: records on disk are invalidated
	hits       int64
	misses     int64
	written    int64
	loaded     int64
	skipped    int64
	shardReads int64
}

// record is one JSONL line: either a simulation-point record (Results
// set) or a raw record (Raw set) holding bookkeeping that is not a
// []sim.MixResult (a point's recorded wall-clock, a bhserve job ticket).
type record struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Results []sim.MixResult `json:"results,omitempty"`
	Raw     json.RawMessage `json:"raw,omitempty"`

	// Sampled marks records produced by interval-sampled simulation
	// (sim.Config.Sampling). The sampling parameters already participate
	// in the fingerprint — sampled and exact points can never share a
	// key — so the marker is not what keeps them apart; it makes the
	// distinction auditable on the shard line itself, without decoding
	// the embedded results.
	Sampled bool `json:"sampled,omitempty"`
}

// newStore returns an empty store over dir ("" = memory-only).
func newStore(dir string) *Store {
	return &Store{
		dir:      dir,
		mem:      make(map[string][]sim.MixResult),
		rawMem:   make(map[string]json.RawMessage),
		shardOff: make(map[string]int64),
		inflight: make(map[string]bool),
	}
}

// NewMemory returns a store with no backing directory: it behaves exactly
// like the persistent store minus durability, and is what the experiment
// runner uses when no cache directory is configured.
func NewMemory() *Store { return newStore("") }

// Open creates dir if needed and returns the write-through store over it,
// holding every parseable record with the current schema version its
// shards hold: an empty store brought up to date by the same reader that
// keeps it current afterwards (SyncIndex), from offset zero. Later records
// win over earlier ones with the same key, so recomputed points (e.g.
// after a -resume=false run) supersede their predecessors. Corrupt lines
// (torn writes, truncation, garbage) and records from other schema
// versions are counted in Stats.Skipped and otherwise ignored — a
// damaged shard degrades to recomputing its points, never to an error.
func Open(dir string) (*Store, error) {
	s := newStore(dir)
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if err := s.SyncIndex(); err != nil {
		return nil, err
	}
	s.shardReads = 0 // Stats.ShardReads counts reads after Open
	return s, nil
}

// Dir returns the backing directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Len returns the number of records (points and raw entries) currently
// held in memory.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem) + len(s.rawMem)
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Written: s.written,
		Loaded: s.loaded, Skipped: s.skipped, ShardReads: s.shardReads}
}

// Has reports whether key is present in the simulation-point namespace.
// It reads only memory — never the shards — and, unlike Get, does not
// count toward the hit/miss statistics, so coverage queries (which
// figures are fully cached?) do not skew the traffic counters.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.mem[key]
	return ok
}

// Coverage reports how many of the given simulation-point keys are
// already stored. It is the store-level primitive behind "n cached / n
// total" figure listings, and costs one map lookup per key — O(1)
// regardless of how many records the shards hold.
func (s *Store) Coverage(keys []string) (cached int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		if _, ok := s.mem[k]; ok {
			cached++
		}
	}
	return cached
}

// Reload returns the stored results for key, first syncing key's shard
// against disk so records appended by other processes sharing the cache
// directory become visible. It is how a worker that waited out another
// process's claim observes the finished point. The sync is incremental:
// a shard that has not grown since it was last read costs one stat and
// zero reads (see index.go), so polling Reload while a claim holder
// works does not rescan the shard per poll. On a memory-only store —
// or after Reset, which explicitly invalidates everything already on
// disk — Reload is equivalent to Get.
func (s *Store) Reload(key string) ([]sim.MixResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rs, ok := s.mem[key]; ok {
		s.hits++
		return rs, true
	}
	if s.dir == "" || s.reset {
		s.misses++
		return nil, false
	}
	if err := s.syncShardLocked(s.shardPath(key)); err != nil {
		return nil, false
	}
	if rs, ok := s.mem[key]; ok {
		s.hits++
		return rs, true
	}
	return nil, false
}

// Get returns the stored results for key, if any.
func (s *Store) Get(key string) ([]sim.MixResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs, ok := s.mem[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return rs, ok
}

// Put stores the results for key in memory and, for a persistent store,
// appends one record to the key's shard. The record — including its
// trailing newline — is written with a single write call on an
// append-mode descriptor, so concurrent writers (even across processes
// sharing one cache directory) interleave at record granularity rather
// than corrupting each other.
func (s *Store) Put(key string, rs []sim.MixResult) error {
	// An empty slice is rejected alongside nil: with the omitempty wire
	// encoding it would persist as a record the shard reader classifies
	// as corrupt, permanently re-simulating the point.
	if key == "" || len(rs) == 0 {
		return fmt.Errorf("results: refusing to store empty key or empty results")
	}
	rec := record{Schema: SchemaVersion, Key: key, Results: rs}
	for _, r := range rs {
		if r.Sampled() {
			rec.Sampled = true
			break
		}
	}
	line, err := s.encode(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[key] = rs
	if err != nil {
		return err
	}
	return s.appendLocked(key, line)
}

// GetRaw returns the raw record stored under key, if any. Raw records
// live in a separate namespace from simulation points and hold arbitrary
// JSON (see record).
func (s *Store) GetRaw(key string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.rawMem[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return raw, ok
}

// PutRaw stores an arbitrary JSON value under key with the same
// durability and atomicity as Put.
func (s *Store) PutRaw(key string, raw json.RawMessage) error {
	if key == "" || len(raw) == 0 {
		return fmt.Errorf("results: refusing to store empty key or empty raw record")
	}
	line, err := s.encode(record{Schema: SchemaVersion, Key: key, Raw: raw})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rawMem[key] = raw
	if err != nil {
		return err
	}
	return s.appendLocked(key, line)
}

// encode renders rec as its shard line, newline included (nil on a
// memory-only store, which persists nothing). It needs no lock, and Put
// and PutRaw call it before taking s.mu: a point's record takes
// milliseconds to marshal, and every Has, Get and Coverage of a concurrent
// sweep or server would otherwise wait behind it.
func (s *Store) encode(rec record) ([]byte, error) {
	if s.dir == "" {
		return nil, nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return append(line, '\n'), nil
}

// appendLocked persists one encoded record line to key's shard in a single
// write; the caller holds s.mu.
func (s *Store) appendLocked(key string, line []byte) error {
	if s.dir == "" {
		return nil
	}
	f, err := os.OpenFile(s.shardPath(key), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(line); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	s.written++
	return nil
}

// Reset drops every in-memory entry (and the Loaded counter) while
// leaving the shards on disk untouched, and stops Reload from consulting
// them (records already persisted are invalidated for this store, not
// just evicted). Subsequent Puts append fresh records that supersede the
// old ones at the next Open — this is the engine behind "-resume=false":
// recompute everything, but keep writing through.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem = make(map[string][]sim.MixResult)
	s.rawMem = make(map[string]json.RawMessage)
	s.shardOff = make(map[string]int64)
	s.loaded = 0
	s.reset = true
}

// shardPath maps a key to its shard file by the first hex byte.
func (s *Store) shardPath(key string) string {
	prefix := "00"
	if len(key) >= 2 && isHex(key[:2]) {
		prefix = strings.ToLower(key[:2])
	}
	return filepath.Join(s.dir, "shard-"+prefix+".jsonl")
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}
