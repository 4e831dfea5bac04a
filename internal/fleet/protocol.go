package fleet

import (
	"encoding/json"
	"time"

	"breakhammer/internal/exp"
)

// ProtocolVersion is the fleet wire-protocol generation. The hello
// handshake rejects a worker speaking a different generation, so a
// fleet mixing binaries from before and after a protocol change fails
// loudly at connect instead of corrupting leases mid-sweep. Bump it
// when a wire type below changes incompatibly.
//
//	3: exp.Point gained Study and sim.Result (inside exp.Completion)
//	   gained RowCensus; a version-2 worker would drop the study and
//	   simulate the point's Attack-selected family, a version-2
//	   coordinator would store Table 3's results without their census.
//	2: exp.Point (inside exp.Lease) gained Sampling; a version-1 worker
//	   would drop the field and simulate a sampling-validation twin in
//	   the sweep's own mode.
//	1: initial protocol.
const ProtocolVersion = 3

// DefaultLeaseTTL is how long a granted lease survives without a
// heartbeat before the coordinator steals the point and re-issues it.
// Workers heartbeat every TTL/4 (mirroring the claim-file cadence), so
// the default tolerates three consecutive lost heartbeats. Raise it via
// bhserve -fleet-ttl for paper-scale points that simulate for hours.
const DefaultLeaseTTL = 2 * time.Minute

// helloRequest opens a worker's session: the version handshake.
type helloRequest struct {
	Worker   string `json:"worker"`   // worker's self-chosen display name
	Protocol int    `json:"protocol"` // fleet.ProtocolVersion of the worker binary
	Schema   int    `json:"schema"`   // results.SchemaVersion of the worker binary
}

// helloResponse accepts the worker and ships the coordinator's resolved
// experiment options, so workers need no sweep flags of their own: the
// coordinator's configuration is the fleet's configuration. Trace-backed
// sweeps additionally require the trace files to be readable on the
// worker at the same paths — a worker whose trace content diverges
// derives different store keys and is rejected at submit.
type helloResponse struct {
	Protocol int             `json:"protocol"`
	Schema   int             `json:"schema"`
	Options  json.RawMessage `json:"options"` // coordinator's exp.Options, JSON-encoded
}

// leaseRequest asks for the next point; the answer is an exp.Lease — a
// grant, a wait, or done.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// tokenRequest names a lease: the body of heartbeat (the point is still
// being worked on) and release (hand it back unfinished; the point is
// pending again without counting as a steal).
type tokenRequest struct {
	Token string `json:"token"`
}

// resultRequest submits a finished point. The queue re-validates the
// completion's Schema and Key against its own derivation before
// appending to the authoritative store; a stale Token (the lease was
// stolen) earns 410.
type resultRequest struct {
	Token string `json:"token"`
	exp.Completion
}

// okResponse acknowledges heartbeat, result, and release.
type okResponse struct {
	OK bool `json:"ok"`
}

// errorResponse is the JSON body of every non-2xx fleet answer.
type errorResponse struct {
	Error string `json:"error"`
}
