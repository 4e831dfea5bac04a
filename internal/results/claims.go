package results

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// DefaultClaimTTL is the age past which an unreleased claim file's last
// heartbeat is considered abandoned (its owner crashed or was killed)
// and the claim may be stolen. Live holders refresh the file's mtime
// every TTL/4 (the point queue's consumers heartbeat their leases, see
// exp.Queue), so even multi-hour paper-scale points stay claimed
// without hand-tuning.
const DefaultClaimTTL = 30 * time.Minute

// Claim marks one store key as in flight: while held, TryClaim for the
// same key is denied both to other goroutines on this store and — for a
// persistent store — to other processes sharing the cache directory.
// Claims are advisory: they exist so cooperating sweep workers do not
// duplicate a simulation, not to guard correctness (the store's
// append-only, last-wins records are already safe under duplication).
//
// A claim's liveness is its file's mtime: the holder calls Heartbeat
// whenever the worker computing the point proves it is still alive, so
// a point that legitimately simulates for hours is never mistaken for
// an abandoned one — the staleness test measures time since the last
// heartbeat, not since the claim was taken. A holder that goes silent
// (a hung process, a remote worker that stopped heartbeating its lease)
// lets the file age out and the claim expires normally. A holder that
// died on this host loses the claim at once: the file names its owner
// (host, pid, a per-process nonce), and a claim whose owner is provably
// gone is stolen without waiting out the TTL.
type Claim struct {
	store *Store
	key   string
	path  string // "" for memory-only stores

	released sync.Once // Release is a no-op even under concurrent double calls
}

// TryClaim attempts to take the in-flight claim for key. It returns a
// non-nil Claim when acquired, (nil, nil) when another worker — in this
// process or, via a claim file in the cache directory, in another
// process — currently holds it, and an error only on I/O failure. A
// persistent claim file older than ttl (<= 0 means DefaultClaimTTL), or
// one whose owner is dead (see ownerDead), is treated as abandoned and
// stolen. The caller must Release the claim once the point's record is
// in the store.
func (s *Store) TryClaim(key string, ttl time.Duration) (*Claim, error) {
	if key == "" {
		return nil, fmt.Errorf("results: refusing to claim an empty key")
	}
	if ttl <= 0 {
		ttl = DefaultClaimTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[key] {
		return nil, nil
	}
	c := &Claim{store: s, key: key}
	if s.dir != "" {
		path := s.claimPath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, fmt.Errorf("results: %w", err)
		}
		ok, err := takeClaimFile(path, ttl)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		c.path = path
	}
	s.inflight[key] = true
	return c, nil
}

// Heartbeat refreshes the claim file's mtime once, on behalf of the
// worker that just proved liveness. Calling it on a memory-only or a
// released claim is harmless. Refresh errors are ignored: the file may
// have been stolen by a worker whose TTL was far shorter than ours, and
// the append-only store stays correct even then.
func (c *Claim) Heartbeat() {
	if c == nil || c.path == "" {
		return
	}
	now := time.Now()
	os.Chtimes(c.path, now, now)
}

// claimOwner is a claim file's content: which process took the claim.
type claimOwner struct {
	Host  string `json:"host"`
	PID   int    `json:"pid"`
	Nonce string `json:"nonce"`
	Start string `json:"start"`
}

// claimHost and claimNonce identify this process in the claim files it
// writes. The nonce tells this process from an earlier one that ran
// under the same pid, as a restarted container's server usually does.
var (
	claimHost, _ = os.Hostname()
	claimNonce   = newClaimNonce()
)

func newClaimNonce() string {
	b := make([]byte, 8)
	rand.Read(b) // on failure the zero nonce only forgoes the same-pid steal
	return hex.EncodeToString(b)
}

// ownerDead reports whether a claim file's content names a process that
// provably no longer holds it: one on this host that is either this
// process's pid under another nonce, or no running process at all.
// Anything it cannot prove — a foreign host, a live or unsignalable pid,
// an old-format or unparseable file — reads as alive, and the claim is
// respected until its TTL.
func ownerDead(content []byte) bool {
	var o claimOwner
	if json.Unmarshal(content, &o) != nil || o.Host == "" || o.Host != claimHost || o.PID <= 0 || o.Nonce == "" {
		return false
	}
	if o.PID == os.Getpid() {
		return o.Nonce != claimNonce
	}
	p, err := os.FindProcess(o.PID)
	if err != nil {
		return false
	}
	return errors.Is(p.Signal(syscall.Signal(0)), os.ErrProcessDone)
}

// takeClaimFile creates path exclusively, stealing it first when it is
// older than ttl or its owner is dead (ownerDead). It retries once so
// that losing a race against another process's removal still gets a
// clean answer.
func takeClaimFile(path string, ttl time.Duration) (bool, error) {
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			owner, _ := json.Marshal(claimOwner{Host: claimHost, PID: os.Getpid(), Nonce: claimNonce,
				Start: time.Now().UTC().Format(time.RFC3339)}) // strings and an int always marshal
			// A failed write leaves a file no one can parse, which is
			// respected until its TTL: the claim still holds.
			f.Write(append(owner, '\n'))
			return true, f.Close()
		}
		if !os.IsExist(err) {
			return false, fmt.Errorf("results: %w", err)
		}
		st, serr := os.Stat(path)
		if serr != nil {
			continue // the holder released between our open and stat; retry
		}
		if time.Since(st.ModTime()) <= ttl {
			content, rerr := os.ReadFile(path)
			if rerr != nil {
				continue // released between the stat and the read; retry
			}
			if !ownerDead(content) {
				return false, nil // live claim held elsewhere
			}
		}
		// Abandoned claim: remove (best effort — another stealer may beat
		// us to it) and retry the exclusive create.
		os.Remove(path)
	}
	return false, nil
}

// Release drops the claim, deleting its file for persistent stores.
// Releasing a nil or already-released claim is a no-op, even from
// concurrent goroutines (a consumer's completion racing a shutdown path
// must not remove a file a later holder has since re-created).
func (c *Claim) Release() {
	if c == nil || c.store == nil {
		return
	}
	// The Once alone makes repeated calls no-ops; c.store is never
	// cleared, so there is no field write for concurrent callers to race
	// on.
	c.released.Do(func() {
		s := c.store
		s.mu.Lock()
		delete(s.inflight, c.key)
		s.mu.Unlock()
		if c.path != "" {
			os.Remove(c.path)
		}
	})
}

// claimPath maps a key to its claim file under the claims/ subdirectory.
func (s *Store) claimPath(key string) string {
	return filepath.Join(s.dir, "claims", key+".claim")
}
