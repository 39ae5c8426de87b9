// Remote tier: an HTTP client for a shared content-addressed store
// (cmd/calibrocached), slotted above the memory and disk tiers so N
// daemons on N boxes share one artifact pool — the ShareJIT idea at
// fleet scale, enabled by the context-independent SHA-256 key schema.
//
// The tier's one inviolable rule is strict degrade-to-miss: a remote
// cache can make a build faster, it must never make one fail or hang.
// Every failure mode maps onto "the entry is absent":
//
//   - transport errors and per-request deadline expiry (Config.Timeout
//     bounds every request, so a wedged server costs a bounded wait);
//   - 5xx responses and anything else unexpected;
//   - corrupt frames: every body is revalidated with Open on this side,
//     whatever the server claimed;
//   - version skew: requests and responses carry the protocol version in
//     the X-Calibro-Cache-Proto header, and a peer speaking another
//     version is treated as absent, not as an error to surface.
//
// A flapping or down server is additionally contained by a circuit
// breaker: after Threshold consecutive transport-level failures the tier
// stops issuing requests for Cooldown, then lets a single probe through
// (half-open); only a probe's success closes the breaker. While the
// breaker is open every Get is an instant miss and every Put a no-op, so
// a dead fleet store degrades the hit rate, never the build.
package cache

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wire protocol, shared with internal/cache/cacheserver. Entries are
// sealed CCE1 frames addressed by their hex key; claims are the
// single-flight election the serving layer uses to coalesce identical
// in-flight builds across daemons.
const (
	// RemoteProtoVersion is the protocol generation. Client and server
	// exchange it in RemoteProtoHeader on every request and response; a
	// mismatch on either side is version skew and reads as a miss.
	RemoteProtoVersion = "1"
	// RemoteProtoHeader carries RemoteProtoVersion both ways.
	RemoteProtoHeader = "X-Calibro-Cache-Proto"
	// RemoteEntriesPath prefixes GET/PUT of sealed frames: the key is the
	// final path element, 64 lower-case hex characters.
	RemoteEntriesPath = "/v1/entries/"
	// RemoteClaimsPath prefixes POST of single-flight claims.
	RemoteClaimsPath = "/v1/claims/"
)

// ClaimResult is the body of a claim response: whether the caller won
// the election, and whether the artifact already exists (in which case
// nobody needs to build at all).
type ClaimResult struct {
	Winner bool `json:"winner"`
	Ready  bool `json:"ready"`
}

// RemoteConfig parameterizes the remote tier. Only URL is required.
type RemoteConfig struct {
	// URL is the cache server's base URL (e.g. http://127.0.0.1:7740).
	URL string
	// Timeout bounds every single request; it is the most a healthy
	// build will ever stall on a wedged server. Default 2s.
	Timeout time.Duration
	// BreakerThreshold is how many consecutive transport failures open
	// the circuit breaker. Default 5.
	BreakerThreshold int
	// BreakerCooldown is how long the open breaker swallows requests
	// before letting a probe through. Default 5s.
	BreakerCooldown time.Duration
	// Client overrides the HTTP client (tests inject transports here);
	// nil uses a plain client. Per-request deadlines come from Timeout
	// either way.
	Client *http.Client
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// RemoteStats is a point-in-time view of the remote tier's counters.
// Every failure class is counted separately so an operator can tell a
// down server (Errors, BreakerSkips) from a poisoned one (Corrupt) from
// a mixed-version fleet (Skew).
type RemoteStats struct {
	Hits         int64 `json:"hits"`          // entries fetched and validated
	Misses       int64 `json:"misses"`        // clean 404s
	Errors       int64 `json:"errors"`        // transport failures, timeouts, 5xx
	Corrupt      int64 `json:"corrupt"`       // 200s whose frame failed validation
	Skew         int64 `json:"skew"`          // responses speaking another protocol version
	Puts         int64 `json:"puts"`          // entries stored
	PutErrors    int64 `json:"put_errors"`    // stores that failed (swallowed)
	ClaimsWon    int64 `json:"claims_won"`    // single-flight elections won
	ClaimsLost   int64 `json:"claims_lost"`   // elections lost (another daemon builds)
	ClaimErrors  int64 `json:"claim_errors"`  // claim requests that failed
	BreakerOpens int64 `json:"breaker_opens"` // closed -> open transitions
	BreakerSkips int64 `json:"breaker_skips"` // requests swallowed while open
}

// breaker is the consecutive-failure circuit breaker. Closed until
// threshold transport failures in a row; then open for cooldown; then
// half-open, admitting one probe whose outcome closes or re-opens it.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	fails     int
	openUntil time.Time
	probing   bool
}

// allow reports whether a request may be issued now. When it returns
// true the caller must report the outcome with result exactly once.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fails < b.threshold {
		return true
	}
	if time.Now().Before(b.openUntil) {
		return false
	}
	// Half-open: one probe at a time; concurrent requests keep failing
	// fast until the probe reports back.
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

// result records a request outcome. Only transport-level failures count
// against the breaker; a clean miss is a healthy server.
func (b *breaker) result(ok bool) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		b.openUntil = time.Time{}
		return false
	}
	b.fails++
	if b.fails >= b.threshold {
		first := b.openUntil.IsZero()
		b.openUntil = time.Now().Add(b.cooldown)
		return first
	}
	return false
}

// Remote is the client half of the shared cache tier. Create with
// NewRemote; every method is safe for concurrent use and never returns
// an error — failures are counted and degrade to misses.
type Remote struct {
	cfg RemoteConfig
	url string // base URL without trailing slash
	br  breaker

	hits, misses, errors, corrupt, skew atomic.Int64
	puts, putErrors                     atomic.Int64
	claimsWon, claimsLost, claimErrors  atomic.Int64
	breakerOpens, breakerSkips          atomic.Int64
}

// NewRemote returns a remote tier talking to cfg.URL.
func NewRemote(cfg RemoteConfig) *Remote {
	cfg = cfg.withDefaults()
	r := &Remote{cfg: cfg, url: strings.TrimRight(cfg.URL, "/")}
	r.br.threshold = cfg.BreakerThreshold
	r.br.cooldown = cfg.BreakerCooldown
	return r
}

// URL returns the server base URL the tier was configured with.
func (r *Remote) URL() string { return r.url }

// Stats returns a snapshot of the tier's counters.
func (r *Remote) Stats() RemoteStats {
	return RemoteStats{
		Hits:         r.hits.Load(),
		Misses:       r.misses.Load(),
		Errors:       r.errors.Load(),
		Corrupt:      r.corrupt.Load(),
		Skew:         r.skew.Load(),
		Puts:         r.puts.Load(),
		PutErrors:    r.putErrors.Load(),
		ClaimsWon:    r.claimsWon.Load(),
		ClaimsLost:   r.claimsLost.Load(),
		ClaimErrors:  r.claimErrors.Load(),
		BreakerOpens: r.breakerOpens.Load(),
		BreakerSkips: r.breakerSkips.Load(),
	}
}

// allow consults the breaker, counting swallowed requests.
func (r *Remote) allow() bool {
	ok := r.br.allow()
	if !ok {
		r.breakerSkips.Add(1)
	}
	return ok
}

// settle reports a request outcome to the breaker, counting transitions.
func (r *Remote) settle(ok bool) {
	if r.br.result(ok) {
		r.breakerOpens.Add(1)
	}
}

// do issues one bounded request with the protocol header attached and
// classifies the response: transport failures and 5xx are errors (and
// breaker fuel), a response without our protocol version is skew, and
// anything else is handed back for the caller to interpret. The body is
// fully read (bounded) so connections are reused.
func (r *Remote) do(ctx context.Context, method, path string, body io.Reader, maxBody int64) (status int, data []byte, ok bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	rctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, method, r.url+path, body)
	if err != nil {
		r.errors.Add(1)
		r.settle(false)
		return 0, nil, false
	}
	req.Header.Set(RemoteProtoHeader, RemoteProtoVersion)
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		r.errors.Add(1)
		r.settle(false)
		return 0, nil, false
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if rerr != nil {
		r.errors.Add(1)
		r.settle(false)
		return 0, nil, false
	}
	if resp.StatusCode >= 500 {
		r.errors.Add(1)
		r.settle(false)
		return resp.StatusCode, nil, false
	}
	if v := resp.Header.Get(RemoteProtoHeader); v != RemoteProtoVersion {
		// A peer speaking another protocol generation — or not our
		// protocol at all. Not an availability failure: the server
		// answered, so the breaker stays closed, but nothing it says is
		// trusted.
		r.skew.Add(1)
		r.settle(true)
		return resp.StatusCode, nil, false
	}
	r.settle(true)
	return resp.StatusCode, data, true
}

// maxFrame bounds how much of a response body the client will read: the
// largest artifact a job can legitimately produce, with headroom.
const maxFrame = 256 << 20

// entryPath renders the entry route for k.
func entryPath(k Key) string { return RemoteEntriesPath + k.String() }

// Get fetches the sealed frame stored under k. ok means the frame was
// fetched and validated; any failure — breaker open, transport, 5xx,
// 404, corrupt frame, version skew — is a miss.
func (r *Remote) Get(k Key) (sealed []byte, ok bool) {
	return r.get(context.Background(), entryPath(k))
}

func (r *Remote) get(ctx context.Context, path string) (sealed []byte, ok bool) {
	if !r.allow() {
		return nil, false
	}
	status, data, ok := r.do(ctx, http.MethodGet, path, nil, maxFrame)
	if !ok {
		return nil, false
	}
	switch status {
	case http.StatusOK:
		if _, valid := Open(data); !valid {
			r.corrupt.Add(1)
			return nil, false
		}
		r.hits.Add(1)
		return data, true
	case http.StatusNotFound:
		r.misses.Add(1)
		return nil, false
	default:
		r.errors.Add(1)
		return nil, false
	}
}

// GetWait long-polls for the frame under k until it appears, ctx is
// done, or wait elapses — the loser's half of cross-daemon single-
// flight. The poll is chunked so each request stays within the server's
// own long-poll bounds, and every chunk gets Timeout of slack on top for
// transport. Failure semantics match Get: anything wrong is a miss.
func (r *Remote) GetWait(ctx context.Context, k Key, wait time.Duration) (sealed []byte, ok bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := time.Now().Add(wait)
	for {
		remain := time.Until(deadline)
		if remain <= 0 || ctx.Err() != nil {
			return nil, false
		}
		chunk := remain
		if chunk > 2*time.Second {
			chunk = 2 * time.Second
		}
		if !r.allow() {
			return nil, false
		}
		// The chunk's own request needs Timeout + chunk to breathe; a
		// dedicated context widens the per-request bound r.do applies.
		wctx, cancel := context.WithTimeout(ctx, chunk+r.cfg.Timeout)
		status, data, ok := r.doWait(wctx, entryPath(k)+"?wait="+chunk.Round(time.Millisecond).String())
		cancel()
		if !ok {
			return nil, false
		}
		if status == http.StatusOK {
			if _, valid := Open(data); !valid {
				r.corrupt.Add(1)
				return nil, false
			}
			r.hits.Add(1)
			return data, true
		}
		if status != http.StatusNotFound {
			r.errors.Add(1)
			return nil, false
		}
		// Clean 404: the winner has not published yet; poll again.
	}
}

// doWait is do without the per-request Timeout clamp — the caller's
// context already carries the long-poll bound.
func (r *Remote) doWait(ctx context.Context, path string) (status int, data []byte, ok bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+path, nil)
	if err != nil {
		r.errors.Add(1)
		r.settle(false)
		return 0, nil, false
	}
	req.Header.Set(RemoteProtoHeader, RemoteProtoVersion)
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		r.errors.Add(1)
		r.settle(false)
		return 0, nil, false
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxFrame))
	if rerr != nil {
		r.errors.Add(1)
		r.settle(false)
		return 0, nil, false
	}
	if resp.StatusCode >= 500 {
		r.errors.Add(1)
		r.settle(false)
		return resp.StatusCode, nil, false
	}
	if v := resp.Header.Get(RemoteProtoHeader); v != RemoteProtoVersion {
		r.skew.Add(1)
		r.settle(true)
		return resp.StatusCode, nil, false
	}
	r.settle(true)
	return resp.StatusCode, data, true
}

// Put stores the sealed frame under k. Failures are counted and
// swallowed — the remote tier is an accelerator, never a correctness
// dependency. It reports whether the server accepted the entry, which
// the single-flight winner uses purely for accounting.
func (r *Remote) Put(k Key, sealed []byte) bool {
	if _, valid := Open(sealed); !valid {
		// Refuse to publish garbage; the server would bounce it anyway.
		r.putErrors.Add(1)
		return false
	}
	if !r.allow() {
		return false
	}
	status, _, ok := r.do(context.Background(), http.MethodPut, entryPath(k), bytes.NewReader(sealed), 4096)
	if !ok || (status != http.StatusNoContent && status != http.StatusOK) {
		r.putErrors.Add(1)
		return false
	}
	r.puts.Add(1)
	return true
}

// Claim runs the single-flight election for k: exactly one concurrent
// claimant fleet-wide wins and should build then Put; everyone else
// should GetWait for the winner's artifact. ok == false means the
// election itself could not be held (server unreachable, skew) and the
// caller should just build locally — degrade to miss, as everywhere.
func (r *Remote) Claim(k Key) (res ClaimResult, ok bool) {
	if !r.allow() {
		return ClaimResult{}, false
	}
	status, data, ok := r.do(context.Background(), http.MethodPost, RemoteClaimsPath+k.String(), nil, 4096)
	if !ok || status != http.StatusOK {
		r.claimErrors.Add(1)
		return ClaimResult{}, false
	}
	if err := json.Unmarshal(data, &res); err != nil {
		r.claimErrors.Add(1)
		return ClaimResult{}, false
	}
	if res.Winner {
		r.claimsWon.Add(1)
	} else {
		r.claimsLost.Add(1)
	}
	return res, true
}

// ParseKey parses a 64-hex-character content address — the inverse of
// Key.String, shared by the client and the server's route handlers.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*len(k) {
		return k, fmt.Errorf("cache: key %q: want %d hex characters", s, 2*len(k))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("cache: key %q: %v", s, err)
	}
	copy(k[:], b)
	return k, nil
}
