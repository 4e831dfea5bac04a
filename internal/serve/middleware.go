package serve

import (
	"errors"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"breakhammer/internal/exp"
)

// errRateLimited is the 429 body; the Retry-After header carries the
// wait.
var errRateLimited = errors.New("rate limit exceeded; retry after the Retry-After interval")

// This file is the server's composable HTTP middleware: per-client
// request accounting and token-bucket rate limiting, applied to every
// route by Handler. Clients are keyed by API token when they present
// one (X-API-Token header or an Authorization bearer) and by remote
// address otherwise, so a proxy fronting many tokens does not collapse
// them into one bucket.

// maxTrackedClients bounds the accounting map; past it, one arbitrary
// existing client is evicted per new client, so a scan of spoofed
// addresses cannot grow server memory without bound (at the cost of
// resetting the evicted client's bucket and counters).
const maxTrackedClients = 4096

// clientStats is one client's accounting entry plus its token bucket.
type clientStats struct {
	requests int64
	limited  int64
	tokens   float64
	last     time.Time
}

// ClientStats is the wire form of one client's counters on /api/stats.
type ClientStats struct {
	Client   string `json:"client"`
	Requests int64  `json:"requests"`
	// Limited counts requests rejected with 429 by the rate limiter.
	Limited int64 `json:"limited,omitempty"`
}

// limiter implements per-client accounting and token-bucket limiting.
// rate <= 0 disables limiting (accounting still runs). The zero value
// is not usable; Server constructs one with newLimiter.
type limiter struct {
	mu      sync.Mutex
	rate    float64 // tokens refilled per second, per client
	burst   float64 // bucket capacity
	clients map[string]*clientStats
	now     func() time.Time
}

func newLimiter() *limiter {
	return &limiter{clients: make(map[string]*clientStats), now: time.Now}
}

// setLimit configures the per-client refill rate (requests per second)
// and burst capacity. rate <= 0 disables limiting; burst < 1 is raised
// to 1 so a configured limiter always admits a lone request.
func (l *limiter) setLimit(rate float64, burst int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if burst < 1 {
		burst = 1
	}
	l.rate = rate
	l.burst = float64(burst)
}

// admit accounts one request from client and decides whether it may
// proceed. When rejected, retryAfter is the wait (rounded up to whole
// seconds, minimum 1) until the bucket refills enough to admit it.
func (l *limiter) admit(client string) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cs := l.clients[client]
	if cs == nil {
		for len(l.clients) >= maxTrackedClients {
			for k := range l.clients {
				delete(l.clients, k)
				break
			}
		}
		cs = &clientStats{tokens: l.burst, last: l.now()}
		l.clients[client] = cs
	}
	cs.requests++
	if l.rate <= 0 {
		return true, 0
	}
	now := l.now()
	cs.tokens = math.Min(l.burst, cs.tokens+now.Sub(cs.last).Seconds()*l.rate)
	cs.last = now
	if cs.tokens < 1 {
		cs.limited++
		secs := math.Ceil((1 - cs.tokens) / l.rate)
		if secs < 1 {
			secs = 1
		}
		return false, time.Duration(secs) * time.Second
	}
	cs.tokens--
	return true, 0
}

// snapshot returns every tracked client's counters, sorted by client
// key for stable rendering.
func (l *limiter) snapshot() []ClientStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]ClientStats, 0, len(l.clients))
	for k, cs := range l.clients {
		out = append(out, ClientStats{Client: k, Requests: cs.requests, Limited: cs.limited})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// clientKey identifies the requester: an explicit API token when
// presented, the remote host otherwise. Tokens are prefixed so a token
// spelled like an address can never collide with an address-keyed
// client.
func clientKey(r *http.Request) string {
	if tok := r.Header.Get("X-API-Token"); tok != "" {
		return "token:" + tok
	}
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
		return "token:" + auth[7:]
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// withAccounting wraps next in the accounting + rate-limit middleware.
// Rejected requests answer 429 with a Retry-After header and a JSON
// error body, and count toward the client's Limited statistic.
func (l *limiter) withAccounting(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ok, retry := l.admit(clientKey(r))
		if !ok {
			w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
			exp.WriteError(w, http.StatusTooManyRequests,
				errRateLimited)
			return
		}
		next.ServeHTTP(w, r)
	})
}
