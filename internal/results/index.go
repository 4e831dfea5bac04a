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
//   - shardOff[path] counts bytes of complete (newline-terminated) lines
//     already read from path. A torn trailing line is left unconsumed
//     and re-read on the next sync, after its writer finishes it.
//   - shardIdent[path] is the file identity (os.SameFile) observed when
//     shardOff[path] was recorded. Compaction replaces a shard via temp
//     file + rename, so a rewrite by any process changes the identity;
//     a sync that sees a different file at the same path resets the
//     offset to zero and re-reads the shard in full — re-reading is
//     idempotent. Byte offsets alone cannot detect this: a rewritten
//     shard can be longer than a handle's offset while holding entirely
//     different bytes below it.
//   - compactEpoch is the compaction marker's content when the offsets
//     were recorded (see compactEpochFile).
//
// After Reset the store has explicitly invalidated everything on disk,
// so syncs are disabled (s.reset) and the tables hold only records put
// since.

// compactEpochFile is a marker in the cache directory whose content
// changes on every compaction. File identity (inode) alone cannot prove
// a shard was not rewritten: a later compaction's temp file can reuse
// the inode an earlier shard generation freed, making the replacement
// invisible to os.SameFile. The epoch breaks that ABA — any handle that
// sees the marker change throws away all of its offsets and re-reads.
const compactEpochFile = "compact-epoch"

// readCompactEpoch returns the marker's content, or "" if absent or
// unreadable (both mean "no compaction observed yet").
func readCompactEpoch(dir string) string {
	b, err := os.ReadFile(filepath.Join(dir, compactEpochFile))
	if err != nil {
		return ""
	}
	return string(b)
}

// checkEpochLocked compares the on-disk compaction epoch with the one
// the offsets were recorded under and, on mismatch, invalidates every
// shard offset so the next syncs re-read in full. The caller holds s.mu.
func (s *Store) checkEpochLocked() {
	epoch := readCompactEpoch(s.dir)
	if epoch == s.compactEpoch {
		return
	}
	s.shardOff = make(map[string]int64)
	s.shardIdent = make(map[string]os.FileInfo)
	s.compactEpoch = epoch
}

// scanShardFrom reads path from byte offset off, invoking fn for every
// complete newline-terminated line, and returns the offset just past the
// last complete line consumed plus the identity of the file actually
// read (from the open descriptor, so a rename racing the scan cannot
// attribute these bytes to the wrong file). A final unterminated line (a
// concurrent writer's torn append) is not consumed: the returned offset
// stops before it, so the next scan picks the line up once its newline
// lands.
func scanShardFrom(path string, off int64, fn func(line []byte)) (int64, os.FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return off, nil, err
	}
	defer f.Close()
	ident, err := f.Stat()
	if err != nil {
		return off, nil, err
	}
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return off, ident, err
		}
	}
	// Buffer what is left of the file, up to 1 MiB: a store has up to 256
	// shards and most hold a few records.
	r := bufio.NewReaderSize(f, int(min(ident.Size()-off, 1<<20)))
	for {
		line, err := r.ReadBytes('\n')
		if err == nil {
			off += int64(len(line))
			fn(line)
			continue
		}
		if err == io.EOF {
			return off, ident, nil // an unterminated tail stays unconsumed
		}
		return off, ident, err
	}
}

// syncShardLocked is the one shard reader: it brings the in-memory tables
// up to date with one shard file, reading only bytes appended since the
// shard was last read (all of it the first time, which is how Open
// loads). Several new records for one key keep shard last-wins semantics
// among themselves; records already present in memory are NOT
// overwritten: once this store has loaded or computed a record, its own
// copy is authoritative for its lifetime (the same contract Get and
// Reload have always had). The caller holds s.mu and has called
// checkEpochLocked.
func (s *Store) syncShardLocked(path string) error {
	st, err := os.Stat(path)
	if os.IsNotExist(err) {
		delete(s.shardOff, path)
		delete(s.shardIdent, path)
		return nil
	}
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return s.readShardLocked(path, st)
}

// readShardLocked is syncShardLocked after its stat: st is what path
// named a moment ago, which a compaction may already have replaced (the
// seam lets a test put the replacement exactly there).
func (s *Store) readShardLocked(path string, st os.FileInfo) error {
	off := s.shardOff[path]
	// A compaction (by any process) replaces the shard via rename: the
	// path now names a different file whose bytes below our offset are
	// not the ones we read. Detect it by identity, not size — a
	// rewritten shard can be longer than our offset.
	if prev, ok := s.shardIdent[path]; ok && !os.SameFile(prev, st) {
		off = 0
	}
	if st.Size() < off {
		off = 0 // truncated underneath us
	}
	if st.Size() == off {
		s.shardIdent[path] = st
		return nil // nothing new: zero reads
	}
	s.shardReads++
	fresh := make(map[string]record) // last-wins within this read, merged fill-if-absent below
	var loaded, skipped int64        // counted only if the scan is kept
	newOff, ident, err := scanShardFrom(path, off, func(line []byte) {
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
	if off > 0 && !os.SameFile(ident, st) {
		// The shard was replaced between the stat and the open: the scan
		// ran against the new file from an offset computed for the old
		// one. Discard it and start over from zero next sync.
		delete(s.shardOff, path)
		delete(s.shardIdent, path)
		return nil
	}
	s.loaded += loaded
	s.skipped += skipped
	if newOff < ident.Size() {
		s.skipped++ // unterminated trailing line: torn write, truncation or an append in flight
	}
	s.shardOff[path] = newOff
	s.shardIdent[path] = ident
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
	s.checkEpochLocked()
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
