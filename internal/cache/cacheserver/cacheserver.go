// Package cacheserver is the store half of the fleet cache protocol:
// an HTTP front end over one content-addressed cache.Cache (typically
// disk-backed) that N calibrod daemons share as their remote tier. It
// speaks the protocol internal/cache's Remote client consumes:
//
//	GET    /v1/entries/{key}   fetch a sealed CCE1 frame (404 on miss;
//	                           ?wait=5s long-polls until a Put lands)
//	PUT    /v1/entries/{key}   store a sealed frame (frame validated
//	                           server-side; invalid bodies answer 400)
//	POST   /v1/claims/{key}    single-flight election: first claimant
//	                           per key wins until a Put fulfils the
//	                           claim or its TTL expires
//	GET    /healthz            liveness + entry count
//	GET    /metrics            counters (?format=prom for Prometheus)
//
// Every request and response carries the protocol version in the
// X-Calibro-Cache-Proto header. A request naming a different version is
// refused with 400 before it can touch the store — the handshake half of
// the client's degrade-to-miss contract (the client's half is distrusting
// responses without its own version).
//
// Checksums are verified on both ends: a PUT body must open as a valid
// sealed frame or it is rejected, and a GET re-seals the store's payload
// so what goes on the wire is always a freshly framed, CRC-covered blob.
// The store itself already treats corrupt disk entries as misses, so a
// bit flipped at rest surfaces as a 404 here, never as a poisoned 200.
package cacheserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Config parameterizes the server. Store is required.
type Config struct {
	// Store holds the entries; share one disk-backed cache.Cache across
	// restarts. The store must not itself have a remote tier attached
	// (the server is the remote tier).
	Store *cache.Cache
	// ClaimTTL bounds how long a single-flight claim stays won without
	// being fulfilled by a Put: past it, the next claimant wins — the
	// crashed-winner escape hatch. Default 1 minute.
	ClaimTTL time.Duration
	// MaxBody bounds a PUT body in bytes. Default 256 MiB.
	MaxBody int64
	// MaxWait clamps the ?wait long-poll window. Default 30s.
	MaxWait time.Duration
}

func (c Config) withDefaults() Config {
	if c.ClaimTTL <= 0 {
		c.ClaimTTL = time.Minute
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 256 << 20
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	return c
}

// waitEntry is the broadcast a long-polling GET parks on: Put closes ch,
// waking every waiter for the key at once.
type waitEntry struct {
	ch   chan struct{}
	refs int
}

// Server handles the fleet cache protocol over one store. Create with
// New; every method is safe for concurrent use.
type Server struct {
	cfg   Config
	store *cache.Cache

	mu      sync.Mutex
	claims  map[cache.Key]time.Time // claim key -> expiry
	waiters map[cache.Key]*waitEntry

	gets, getHits, getMisses atomic.Int64
	puts, putRejected        atomic.Int64
	claimsWon, claimsLost    atomic.Int64
	waitHits, waitTimeouts   atomic.Int64
	protoSkew, badKeys       atomic.Int64
}

// New returns a Server over cfg.Store.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		store:   cfg.Store,
		claims:  map[cache.Key]time.Time{},
		waiters: map[cache.Key]*waitEntry{},
	}
}

// Store returns the backing cache, for the daemon's stats surfaces.
func (s *Server) Store() *cache.Cache { return s.store }

// Handler returns the protocol's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+cache.RemoteEntriesPath+"{key}", s.handleGet)
	mux.HandleFunc("PUT "+cache.RemoteEntriesPath+"{key}", s.handlePut)
	mux.HandleFunc("POST "+cache.RemoteClaimsPath+"{key}", s.handleClaim)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.versioned(mux)
}

// versioned is the handshake middleware: every response carries the
// protocol version, and a request naming a different version is refused
// before any handler sees it. Requests without the header are allowed —
// curl and scrapers remain first-class citizens; the frame checks
// protect the data path regardless.
func (s *Server) versioned(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cache.RemoteProtoHeader, cache.RemoteProtoVersion)
		if v := r.Header.Get(cache.RemoteProtoHeader); v != "" && v != cache.RemoteProtoVersion {
			s.protoSkew.Add(1)
			writeError(w, http.StatusBadRequest,
				"protocol version "+v+" unsupported; this server speaks "+cache.RemoteProtoVersion)
			return
		}
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// keyFromPath parses the {key} path segment, answering the 400 itself.
func (s *Server) keyFromPath(w http.ResponseWriter, r *http.Request) (cache.Key, bool) {
	k, err := cache.ParseKey(r.PathValue("key"))
	if err != nil {
		s.badKeys.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return k, false
	}
	return k, true
}

// addWaiter registers interest in k, returning the broadcast entry.
func (s *Server) addWaiter(k cache.Key) *waitEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.waiters[k]
	if e == nil {
		e = &waitEntry{ch: make(chan struct{})}
		s.waiters[k] = e
	}
	e.refs++
	return e
}

// dropWaiter releases one registration, deleting the entry when the last
// waiter leaves without a wake (a woken entry was already deleted).
func (s *Server) dropWaiter(k cache.Key, e *waitEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.refs--
	if e.refs <= 0 && s.waiters[k] == e {
		delete(s.waiters, k)
	}
}

// fulfil wakes every long-poller for k and releases its claim — the
// moment a Put lands, losers stop waiting and future claimants are told
// the artifact is ready.
func (s *Server) fulfil(k cache.Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.claims, k)
	if e := s.waiters[k]; e != nil {
		close(e.ch)
		delete(s.waiters, k)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	k, ok := s.keyFromPath(w, r)
	if !ok {
		return
	}
	s.gets.Add(1)
	payload, found := s.store.Get(k)
	if !found {
		if wq := r.URL.Query().Get("wait"); wq != "" {
			d, err := time.ParseDuration(wq)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad wait duration: "+err.Error())
				return
			}
			if d > s.cfg.MaxWait {
				d = s.cfg.MaxWait
			}
			payload, found = s.waitFor(r, k, d)
		}
	}
	if !found {
		s.getMisses.Add(1)
		writeError(w, http.StatusNotFound, "no entry "+k.String())
		return
	}
	s.getHits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(cache.Seal(payload)) //nolint:errcheck // client disconnects are not server errors
}

// waitFor parks the request until a Put for k lands, the window closes,
// or the client goes away. The entry is re-read after the wake so the
// bytes served are always the store's, never a message payload.
func (s *Server) waitFor(r *http.Request, k cache.Key, d time.Duration) ([]byte, bool) {
	e := s.addWaiter(k)
	defer s.dropWaiter(k, e)
	// Re-check after registering: a Put between the miss and the
	// registration closed nobody's channel.
	if payload, ok := s.store.Get(k); ok {
		return payload, true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-e.ch:
		if payload, ok := s.store.Get(k); ok {
			s.waitHits.Add(1)
			return payload, true
		}
		return nil, false
	case <-t.C:
		s.waitTimeouts.Add(1)
		return nil, false
	case <-r.Context().Done():
		return nil, false
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	k, ok := s.keyFromPath(w, r)
	if !ok {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		s.putRejected.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "entry over limit: "+err.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "reading entry: "+err.Error())
		return
	}
	payload, valid := cache.Open(body)
	if !valid {
		// Checksum verified server-side: a truncated, flipped, or
		// version-skewed frame never enters the store.
		s.putRejected.Add(1)
		writeError(w, http.StatusBadRequest, "body is not a valid sealed frame")
		return
	}
	s.store.Put(k, payload)
	s.puts.Add(1)
	s.fulfil(k)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	k, ok := s.keyFromPath(w, r)
	if !ok {
		return
	}
	res := s.claim(k, time.Now())
	if res.Winner {
		s.claimsWon.Add(1)
	} else {
		s.claimsLost.Add(1)
	}
	writeJSON(w, http.StatusOK, res)
}

// claim runs one election at the given instant. An existing entry means
// nobody should build (ready); an unexpired claim means someone already
// is (lose); otherwise the caller wins and holds the claim until a Put
// fulfils it or the TTL expires.
func (s *Server) claim(k cache.Key, now time.Time) cache.ClaimResult {
	if s.store.Contains(k) {
		return cache.ClaimResult{Winner: false, Ready: true}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if exp, held := s.claims[k]; held && now.Before(exp) {
		return cache.ClaimResult{Winner: false}
	}
	// Keep the table bounded no matter how many claims are abandoned:
	// sweep expired claims once it grows past a small multiple of any
	// sane in-flight count.
	if len(s.claims) > 4096 {
		for ck, exp := range s.claims {
			if now.After(exp) {
				delete(s.claims, ck)
			}
		}
	}
	s.claims[k] = now.Add(s.cfg.ClaimTTL)
	return cache.ClaimResult{Winner: true}
}

// Health is the /healthz body.
type Health struct {
	Status  string `json:"status"`
	Entries int    `json:"entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{Status: "ok", Entries: s.store.Len()})
}

// Metrics is the /metrics JSON body: the server's own protocol counters
// plus the backing store's accounting.
type Metrics struct {
	Gets         int64       `json:"gets"`
	GetHits      int64       `json:"get_hits"`
	GetMisses    int64       `json:"get_misses"`
	Puts         int64       `json:"puts"`
	PutsRejected int64       `json:"puts_rejected"`
	ClaimsWon    int64       `json:"claims_won"`
	ClaimsLost   int64       `json:"claims_lost"`
	WaitHits     int64       `json:"wait_hits"`
	WaitTimeouts int64       `json:"wait_timeouts"`
	ProtoSkew    int64       `json:"proto_skew"`
	BadKeys      int64       `json:"bad_keys"`
	ClaimsOpen   int         `json:"claims_open"`
	Store        cache.Stats `json:"store"`
}

// Metrics snapshots the server.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	open := len(s.claims)
	s.mu.Unlock()
	return Metrics{
		Gets:         s.gets.Load(),
		GetHits:      s.getHits.Load(),
		GetMisses:    s.getMisses.Load(),
		Puts:         s.puts.Load(),
		PutsRejected: s.putRejected.Load(),
		ClaimsWon:    s.claimsWon.Load(),
		ClaimsLost:   s.claimsLost.Load(),
		WaitHits:     s.waitHits.Load(),
		WaitTimeouts: s.waitTimeouts.Load(),
		ProtoSkew:    s.protoSkew.Load(),
		BadKeys:      s.badKeys.Load(),
		ClaimsOpen:   open,
		Store:        s.store.Stats(),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, s.Metrics())
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w) //nolint:errcheck // response committed
	default:
		writeError(w, http.StatusBadRequest, "unknown metrics format "+format)
	}
}

// WritePrometheus renders the server's counters in the text exposition
// format. Families appear in a fixed order and carry only counters and
// gauges, so the document is deterministic for a deterministic request
// history — the property the golden test pins.
func (s *Server) WritePrometheus(w io.Writer) error {
	m := s.Metrics()
	p := obs.NewPromWriter(w)

	p.Family("calibrocached_entries", "gauge", "Entries resident in the store's memory tier.")
	p.Sample("", nil, float64(m.Store.Entries))
	p.Family("calibrocached_store_bytes", "gauge", "Sealed bytes resident in the store's memory tier.")
	p.Sample("", nil, float64(m.Store.MemBytes))
	p.Family("calibrocached_claims_open", "gauge", "Unfulfilled single-flight claims held right now.")
	p.Sample("", nil, float64(m.ClaimsOpen))

	p.Family("calibrocached_gets_total", "counter", "Entry fetches by result.")
	p.Sample("", []obs.Label{{Key: "result", Value: "hit"}}, float64(m.GetHits))
	p.Sample("", []obs.Label{{Key: "result", Value: "miss"}}, float64(m.GetMisses))
	p.Family("calibrocached_puts_total", "counter", "Entries accepted into the store.")
	p.Sample("", nil, float64(m.Puts))
	p.Family("calibrocached_puts_rejected_total", "counter", "PUT bodies refused by the frame check.")
	p.Sample("", nil, float64(m.PutsRejected))
	p.Family("calibrocached_claims_total", "counter", "Single-flight elections by result.")
	p.Sample("", []obs.Label{{Key: "result", Value: "won"}}, float64(m.ClaimsWon))
	p.Sample("", []obs.Label{{Key: "result", Value: "lost"}}, float64(m.ClaimsLost))
	p.Family("calibrocached_waits_total", "counter", "Long-poll GETs by outcome.")
	p.Sample("", []obs.Label{{Key: "result", Value: "hit"}}, float64(m.WaitHits))
	p.Sample("", []obs.Label{{Key: "result", Value: "timeout"}}, float64(m.WaitTimeouts))
	p.Family("calibrocached_proto_skew_total", "counter", "Requests refused for speaking another protocol version.")
	p.Sample("", nil, float64(m.ProtoSkew))
	p.Family("calibrocached_bad_keys_total", "counter", "Requests with malformed content addresses.")
	p.Sample("", nil, float64(m.BadKeys))

	p.Family("calibrocached_store_hits_total", "counter", "Store lookups served (memory or disk).")
	p.Sample("", nil, float64(m.Store.Hits))
	p.Family("calibrocached_store_misses_total", "counter", "Store lookups that found nothing.")
	p.Sample("", nil, float64(m.Store.Misses))
	p.Family("calibrocached_store_corrupt_total", "counter", "Store entries rejected by the frame check.")
	p.Sample("", nil, float64(m.Store.Corrupt))
	p.Family("calibrocached_store_evicted_total", "counter", "Store entries evicted by the memory bound.")
	p.Sample("", nil, float64(m.Store.Evicted))
	return p.Err()
}
