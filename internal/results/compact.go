package results

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// CompactResult summarizes one compaction pass.
type CompactResult struct {
	Shards  int   // shard files rewritten (or removed when empty)
	Kept    int64 // live records written back
	Dropped int64 // superseded, stale-schema or corrupt lines removed
}

// Compact rewrites every shard on disk keeping only the live record per
// key — the last-wins state the store already holds in memory — and
// drops superseded duplicates (recomputed points, -resume=false reruns),
// records from other schema versions, and corrupt lines. Records are
// written back sorted by key, so compaction is deterministic. A
// memory-only store compacts to nothing and reports zero counts.
//
// Compaction assumes it briefly owns the cache directory: a writer in
// another process that appends to a shard in the instant between the
// rewrite and the rename can lose that one record, which degrades to
// recomputing the point (the store's universal failure mode), never to
// corruption. bhserve runs a pass opportunistically at startup; fleets
// should avoid compacting mid-sweep.
func (s *Store) Compact() (CompactResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var res CompactResult
	if s.dir == "" {
		return res, nil
	}
	// Group the live state by shard file.
	byShard := make(map[string][]record)
	for key, rs := range s.mem {
		p := s.shardPath(key)
		byShard[p] = append(byShard[p], pointRecord(key, rs))
	}
	for key, raw := range s.rawMem {
		p := s.shardPath(key)
		byShard[p] = append(byShard[p], record{Schema: SchemaVersion, Key: key, Raw: raw})
	}
	shards, err := filepath.Glob(filepath.Join(s.dir, "shard-*.jsonl"))
	if err != nil {
		return res, fmt.Errorf("results: %w", err)
	}
	sort.Strings(shards)
	for _, shard := range shards {
		existing, err := countLines(shard)
		if err != nil {
			return res, err
		}
		live := byShard[shard]
		sort.Slice(live, func(i, j int) bool { return live[i].Key < live[j].Key })
		if len(live) == 0 {
			if err := os.Remove(shard); err != nil {
				return res, fmt.Errorf("results: %w", err)
			}
			delete(s.shardOff, shard)
			delete(s.shardIdent, shard)
			res.Shards++
			res.Dropped += existing
			continue
		}
		size, err := rewriteShard(shard, live)
		if err != nil {
			return res, err
		}
		// Every record just written came from this store's memory, so the
		// whole rewritten file is already indexed: advance the high-water
		// mark to its size — and record the rewritten file's identity, so
		// this handle's next sync does not mistake its own compaction for
		// a foreign rewrite. Other handles see the identity change and
		// re-read from zero.
		s.shardOff[shard] = size
		if ident, err := os.Stat(shard); err == nil {
			s.shardIdent[shard] = ident
		} else {
			delete(s.shardIdent, shard)
		}
		res.Shards++
		res.Kept += int64(len(live))
		res.Dropped += existing - int64(len(live))
	}
	if res.Shards > 0 {
		s.bumpCompactEpochLocked()
	}
	return res, nil
}

// bumpCompactEpochLocked advances the compact-epoch marker so every
// other handle on this directory invalidates its shard offsets and
// re-reads (see compactEpochFile). This handle adopts the new epoch
// directly: its own offsets describe the files it just wrote. The write
// is best-effort — a torn or failed marker reads as "changed", which
// degrades to other handles re-reading, never to missed records.
func (s *Store) bumpCompactEpochLocked() {
	n, _ := strconv.ParseInt(readCompactEpoch(s.dir), 10, 64)
	epoch := strconv.FormatInt(n+1, 10)
	if err := os.WriteFile(filepath.Join(s.dir, compactEpochFile), []byte(epoch), 0o644); err == nil {
		s.compactEpoch = epoch
	}
}

// rewriteShard atomically replaces one shard file with the given records
// via a temp file and rename, returning the rewritten file's size so the
// caller can advance the shard's index high-water mark.
func rewriteShard(shard string, recs []record) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(shard), filepath.Base(shard)+".compact-*")
	if err != nil {
		return 0, fmt.Errorf("results: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var size int64
	w := bufio.NewWriter(tmp)
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return 0, fmt.Errorf("results: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
		size += int64(len(line)) + 1
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("results: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("results: %w", err)
	}
	if err := os.Rename(tmp.Name(), shard); err != nil {
		return 0, fmt.Errorf("results: %w", err)
	}
	return size, nil
}

// countLines counts newline-terminated (and trailing unterminated) lines.
func countLines(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("results: %w", err)
	}
	defer f.Close()
	var n int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		n++
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("results: reading %s: %w", path, err)
	}
	return n, nil
}
