package sim

import (
	"encoding/json"
	"fmt"

	"breakhammer/internal/workload"
)

// canonicalJSON encodes v as JSON with object keys in sorted order
// regardless of the order the source declares struct fields in: the value
// is marshalled once, decoded into generic maps, and marshalled again
// (encoding/json emits map keys sorted). The resulting bytes are stable
// across source-level field reordering, which makes them safe to hash
// into persistent cache keys.
func canonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var generic any
	if err := json.Unmarshal(raw, &generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

// normalizedForFingerprint resolves every defaulted knob to its effective
// value, so that two configurations describing the same simulation (say
// BHThreat 0 versus the explicit Table 2 default 32) fingerprint — and
// therefore cache — identically.
func (c Config) normalizedForFingerprint() Config {
	c.Channels = c.channels()
	// Lockstep execution is an execution strategy, not a simulated
	// system: lockstep and skip-ahead runs are bit-identical, so they
	// must share one fingerprint (and therefore one results-store key).
	// ParallelChannels is a deprecated no-op, zeroed so that setting it
	// moves no key either.
	c.ParallelChannels = false
	c.DisableSkipAhead = false
	c.BHWindow = c.bhWindow()
	if c.BHThreat == 0 {
		c.BHThreat = 32
	}
	if c.BHOutlier == 0 {
		c.BHOutlier = 0.65
	}
	if c.ThrottleAt == "" {
		c.ThrottleAt = "mshr"
	}
	if c.AddressMap == "" {
		c.AddressMap = "mop"
	}
	if c.RowPressFactor <= 1 {
		c.RowPressFactor = 1
	}
	// Disabled sampling collapses to the zero value (exact fingerprints
	// stay stable if the sampling defaults ever change); enabled sampling
	// resolves its window defaults, so "enabled with defaults" and the
	// explicit spelling of the same windows share a key — while sampled
	// and exact configurations never can.
	c.Sampling = c.Sampling.Normalized()
	return c
}

// Fingerprint returns a canonical JSON encoding of one experiment point —
// the full configuration plus the workload mixes it runs — suitable for
// content-addressing simulation results. Two points fingerprint equally
// if and only if they describe the same simulations: every Config field
// participates (adding a field changes the fingerprint, which is the
// desired invalidation), while struct field order and defaulted-versus-
// explicit spellings of the same knob do not.
//
// Trace-backed specs are fingerprinted by the trace file's content hash,
// never its path (Spec.TraceFile is excluded from the encoding;
// workload.ResolveTraceHashes fills Spec.TraceHash here when the caller
// has not already). Renaming a trace file therefore preserves every key
// derived from it, while editing one record changes them all — which is
// why resolving can fail, and Fingerprint with an unreadable trace file
// returns that error instead of silently keying on an empty hash.
func Fingerprint(cfg Config, mixes []workload.Mix) ([]byte, error) {
	mixes, err := workload.ResolveTraceHashes(mixes)
	if err != nil {
		return nil, fmt.Errorf("sim: fingerprint: %w", err)
	}
	b, err := canonicalJSON(struct {
		Config Config         `json:"config"`
		Mixes  []workload.Mix `json:"mixes"`
	}{cfg.normalizedForFingerprint(), mixes})
	if err != nil {
		return nil, fmt.Errorf("sim: fingerprint: %w", err)
	}
	return b, nil
}
