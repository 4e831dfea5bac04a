package results

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// This file implements the store's one shard reader. The store keeps one
// in-memory table per namespace (s.mem for simulation points, s.rawMem
// for raw records); membership queries — Has, Coverage — read
// only those tables. What this file adds is how the tables follow the
// disk: a per-shard high-water mark of how many bytes have already been
// read, so that observing records appended by other processes costs a
// stat per shard plus a read of the appended tail, never a rescan of
// bytes already seen. Open is the same reader started from nothing. The
// marks are derived state: they never participate in a record's key or
// fingerprint, so SchemaVersion is unaffected.
//
// Invariants (all under s.mu):
//
//   - Shards only grow. The store appends and never rewrites or deletes
//     a shard, so the bytes below a mark are the bytes already read.
//   - shardOff[path] counts bytes of complete (newline-terminated) lines
//     already read from path. A torn trailing line is left unconsumed
//     and re-read on the next sync, after its writer finishes it.
//   - A shard found shorter than its mark was truncated or replaced by
//     hand, and is re-read from zero (re-reading is idempotent). One
//     replaced by hand with a longer file can at worst hide records
//     below the old mark: that costs re-simulating them and never gives
//     a wrong answer.
//
// After Reset the store has explicitly invalidated everything on disk,
// so syncs are disabled (s.reset) and the tables hold only records put
// since.

// scanShardFrom reads path from byte offset off, invoking fn for every
// complete newline-terminated line, and returns the offset just past the
// last complete line consumed and whether an unterminated line followed
// it. That final line (a concurrent writer's torn append) is not
// consumed: the returned offset stops before it, so the next scan picks
// the line up once its newline lands.
func scanShardFrom(path string, off int64, fn func(line []byte)) (int64, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return off, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return off, false, err
	}
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return off, false, err
		}
	}
	// Buffer what is left of the file, up to 1 MiB: a store has up to 256
	// shards and most hold a few records.
	r := bufio.NewReaderSize(f, int(min(st.Size()-off, 1<<20)))
	for {
		line, err := r.ReadBytes('\n')
		if err == nil {
			off += int64(len(line))
			fn(line)
			continue
		}
		if err == io.EOF {
			return off, len(line) > 0, nil // an unterminated tail stays unconsumed
		}
		return off, false, err
	}
}

// syncShardLocked is the one shard reader: it brings the in-memory tables
// up to date with one shard file, reading only bytes appended since the
// shard was last read (all of it the first time, which is how Open
// loads). Several new records for one key keep shard last-wins semantics
// among themselves; records already present in memory are NOT
// overwritten: once this store has loaded or computed a record, its own
// copy is authoritative for its lifetime (the same contract Get and
// Reload have always had). The caller holds s.mu.
func (s *Store) syncShardLocked(path string) error {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		delete(s.shardOff, path)
		return nil
	}
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	off := s.shardOff[path]
	if st.Size() < off {
		off = 0 // truncated or replaced by hand: re-read from zero
	}
	if st.Size() == off {
		return nil // nothing new: zero reads
	}
	s.shardReads++
	fresh := make(map[string]record) // last-wins within this read, merged fill-if-absent below
	var loaded, skipped int64        // counted only if the scan completes
	newOff, torn, err := scanShardFrom(path, off, func(line []byte) {
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Schema != SchemaVersion || rec.Key == "" ||
			rec.Raw == nil && rec.Results == nil {
			skipped++
			return
		}
		loaded++
		fresh[rec.Key] = rec
	})
	if err != nil {
		return fmt.Errorf("results: reading %s: %w", path, err)
	}
	s.loaded += loaded
	s.skipped += skipped
	if torn {
		s.skipped++ // unterminated trailing line: torn write, truncation or an append in flight
	}
	s.shardOff[path] = newOff
	for key, rec := range fresh {
		if rec.Raw != nil {
			if _, ok := s.rawMem[key]; !ok {
				s.rawMem[key] = rec.Raw
			}
		} else if _, ok := s.mem[key]; !ok {
			s.mem[key] = rec.Results
		}
	}
	return nil
}

// SyncIndex brings the store up to date with every shard on disk in one
// pass, picking up records appended by other processes sharing the cache
// directory. Shards that have not grown since they were last read cost a
// stat each and zero reads, so polling SyncIndex on a quiescent store is
// cheap at any store size. Memory-only and Reset stores are no-ops
// (Reset explicitly invalidated the disk for this store).
func (s *Store) SyncIndex() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" || s.reset {
		return nil
	}
	shards, err := filepath.Glob(filepath.Join(s.dir, "shard-*.jsonl"))
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	sort.Strings(shards)
	for _, shard := range shards {
		if err := s.syncShardLocked(shard); err != nil {
			return err
		}
	}
	return nil
}

// RawKeys returns every raw-namespace key with the given prefix, sorted.
// It is how bhserve enumerates its durable job tickets at startup; pass
// "" for every raw key.
func (s *Store) RawKeys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.rawMem {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
