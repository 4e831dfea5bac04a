package results

import (
	"encoding/json"
	"time"
)

// GenerationKey is the raw-namespace key under which the store persists
// its cache-generation record. The generation is a monotonic counter
// that joins derived (raw-table) cache keys in the experiment layer:
// bumping it orphans every generation-suffixed raw record at once, so
// rendered tables recompute lazily while simulation-point records —
// which are never generation-keyed — stay warm forever.
const GenerationKey = "cache-generation"

// generationRecord is the persisted shape of the generation counter.
// Born is when the current generation began (unix nanoseconds); a TTL
// measures expiry from it.
type generationRecord struct {
	Gen  uint64 `json:"gen"`
	Born int64  `json:"born_ns"`
}

// Generation returns the store's current cache generation, lazily
// advancing it when ttl has elapsed since the generation was born.
// ttl <= 0 means generations never expire: the current generation (0
// for a store that has never been bumped) is returned unchanged and
// nothing is persisted. The bump is write-through, so a restarted
// process resumes the same generation instead of resurrecting expired
// tables.
func (s *Store) Generation(ttl time.Duration) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.generationLocked()
	if ttl <= 0 {
		return rec.Gen, nil
	}
	if rec.Born == 0 {
		// First use under a TTL: stamp the current generation's birth so
		// expiry is measured from here, not from the epoch.
		rec.Born = s.now().UnixNano()
		return rec.Gen, s.putGenerationLocked(rec)
	}
	if s.now().Sub(time.Unix(0, rec.Born)) >= ttl {
		rec.Gen++
		rec.Born = s.now().UnixNano()
		return rec.Gen, s.putGenerationLocked(rec)
	}
	return rec.Gen, nil
}

// BumpGeneration unconditionally advances the cache generation and
// returns the new value. It backs bhserve's authenticated invalidation
// endpoint: every generation-keyed raw table becomes unreachable
// immediately, and the next request for each recomputes it.
func (s *Store) BumpGeneration() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.generationLocked()
	rec.Gen++
	rec.Born = s.now().UnixNano()
	return rec.Gen, s.putGenerationLocked(rec)
}

// generationLocked decodes the persisted generation record, defaulting
// to generation zero (born never) when absent or unreadable. The caller
// holds s.mu.
func (s *Store) generationLocked() generationRecord {
	var rec generationRecord
	if raw, ok := s.rawMem[GenerationKey]; ok {
		_ = json.Unmarshal(raw, &rec)
	}
	return rec
}

// putGenerationLocked persists the generation record write-through,
// bypassing PutRaw only to stay inside the already-held lock. The
// caller holds s.mu.
func (s *Store) putGenerationLocked(rec generationRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.rawMem[GenerationKey] = raw
	line, err := s.encode(record{Schema: SchemaVersion, Key: GenerationKey, Raw: raw})
	if err != nil {
		return err
	}
	return s.appendLocked(GenerationKey, line)
}

// SetClock overrides the store's wall clock. Tests use it to drive
// generation TTL expiry deterministically; production stores keep
// time.Now.
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}
