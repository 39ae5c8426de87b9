// Package cache is the content-addressed compilation cache that makes
// warm rebuilds cheap. Per-method code generation is a pure function of
// the method's bytecode, the signatures of the methods it references, and
// the codegen option knobs — exactly the redundancy ShareJIT exploits by
// sharing compiled code across compilations keyed by content. The cache
// maps a stable content hash of those inputs (the Key, built with Hasher)
// to the serialized compiled artifact, so a rebuild of unchanged input
// skips IR construction and code generation entirely.
//
// Layering: this package stores opaque payload bytes under content
// addresses; it knows nothing about what they encode. The payload codec
// for compiled methods — and the key schema that decides what invalidates
// them — lives in internal/codegen, next to the code generator whose
// output it snapshots. What this package owns is everything a *store*
// must get right:
//
//   - a versioned, checksummed on-wire frame (Seal/Open), so corrupt,
//     truncated, or version-skewed entries are detected and degrade to a
//     miss — never an error, never a panic;
//   - a concurrency-safe in-memory map, sharded 16 ways so parallel
//     compile workers never serialize on one cache-wide lock (the strict
//     insertion-order eviction keeps a separate policy mutex off the read
//     path; atomic counters for stats; no lock held during encode/decode
//     or disk I/O);
//   - an optional on-disk directory for cross-process warm starts, with
//     atomic writes (temp file + rename) and read-through promotion into
//     memory.
//
// Determinism contract, inherited from the parallel-build work: the cache
// changes scheduling and work, never output. Entries are immutable once
// stored; readers decode private copies, so a cached artifact can never
// alias state a later pipeline stage mutates.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Key is a content address: the SHA-256 of canonical key material fed
// through a Hasher. Equal keys mean "same compilation inputs"; the key
// schema (what goes into the hash, and in what order) is owned by the
// caller and pinned by its own golden tests.
type Key [sha256.Size]byte

// String renders the key as lower-case hex, the on-disk file stem.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates canonical key material. Every field is written with
// an unambiguous fixed-width or length-prefixed encoding, so two
// different field sequences can never collide by concatenation. Fields
// are staged in a fixed buffer and flushed to SHA-256 in large writes:
// key hashing runs once per method per build, warm or cold, so the
// per-Write overhead of the hash state is the warm path's compile cost.
// Buffering changes only the write granularity, never the hashed byte
// stream, so keys are identical to an unbuffered hasher's.
type Hasher struct {
	h   hash.Hash
	n   int
	buf [512]byte
	sum Key // Sum's output, here so the digest does not escape per key
}

// hasherPool recycles Hashers (each carries a 512-byte staging buffer and
// a SHA-256 state). Key hashing runs once per method per build — warm or
// cold — so the pool keeps the warm path allocation-free.
var hasherPool = sync.Pool{New: func() any {
	return &Hasher{h: sha256.New()}
}}

// NewHasher starts a key over the given schema tag. The tag versions the
// whole key layout: bumping it invalidates every existing entry at once,
// which is the safe response to any change in what the key covers.
// Hashers come from an internal pool; Sum returns them to it, which is why
// a Hasher must not be touched after Sum.
func NewHasher(schema string) *Hasher {
	h := hasherPool.Get().(*Hasher)
	h.h.Reset()
	h.n = 0
	h.Str(schema)
	return h
}

func (h *Hasher) flush() {
	if h.n > 0 {
		h.h.Write(h.buf[:h.n])
		h.n = 0
	}
}

// Int writes a fixed-width signed integer.
func (h *Hasher) Int(v int64) {
	if h.n+8 > len(h.buf) {
		h.flush()
	}
	binary.LittleEndian.PutUint64(h.buf[h.n:], uint64(v))
	h.n += 8
}

// Uint writes a fixed-width unsigned integer.
func (h *Hasher) Uint(v uint64) {
	h.Int(int64(v))
}

// Bool writes a boolean as one full-width word (no packing, no ambiguity).
func (h *Hasher) Bool(b bool) {
	var v int64
	if b {
		v = 1
	}
	h.Int(v)
}

// Bytes writes a length-prefixed byte string. A long one goes to the
// hash state in one write, past the staging buffer.
func (h *Hasher) Bytes(b []byte) {
	h.Int(int64(len(b)))
	if h.n+len(b) <= len(h.buf) {
		h.n += copy(h.buf[h.n:], b)
		return
	}
	h.flush()
	h.h.Write(b)
}

// Str writes a length-prefixed string.
func (h *Hasher) Str(s string) {
	h.Int(int64(len(s)))
	for len(s) > 0 {
		if h.n == len(h.buf) {
			h.flush()
		}
		n := copy(h.buf[h.n:], s)
		h.n += n
		s = s[n:]
	}
}

// Sum finalizes the key and releases the Hasher back to the pool. The
// Hasher must not be reused afterwards.
func (h *Hasher) Sum() Key {
	h.flush()
	h.h.Sum(h.sum[:0])
	k := h.sum
	hasherPool.Put(h)
	return k
}

// Frame layout (little-endian): magic, format version, payload length,
// payload, CRC-32 (IEEE) of everything before the checksum. The version
// is part of the checksummed region, so a version byte flipped in place
// fails the checksum and a genuinely old entry fails the version check —
// both are misses.
const (
	frameMagic   = 0x31454343 // "CCE1"
	frameVersion = 1
	frameHeader  = 12 // magic + version + payload length
	frameFooter  = 4  // crc32
)

// Seal wraps a payload in the versioned, checksummed frame.
func Seal(payload []byte) []byte {
	blob := make([]byte, frameHeader+len(payload)+frameFooter)
	le := binary.LittleEndian
	le.PutUint32(blob[0:], frameMagic)
	le.PutUint32(blob[4:], frameVersion)
	le.PutUint32(blob[8:], uint32(len(payload)))
	copy(blob[frameHeader:], payload)
	sum := crc32.ChecksumIEEE(blob[:frameHeader+len(payload)])
	le.PutUint32(blob[frameHeader+len(payload):], sum)
	return blob
}

// Open validates a frame and returns its payload. Any defect — short
// blob, wrong magic, unknown version, length mismatch, checksum failure —
// returns ok == false: the store treats the entry as absent. The returned
// slice aliases blob and must be treated as read-only.
func Open(blob []byte) (payload []byte, ok bool) {
	if len(blob) < frameHeader+frameFooter {
		return nil, false
	}
	le := binary.LittleEndian
	if le.Uint32(blob[0:]) != frameMagic || le.Uint32(blob[4:]) != frameVersion {
		return nil, false
	}
	plen := int(le.Uint32(blob[8:]))
	if plen != len(blob)-frameHeader-frameFooter {
		return nil, false
	}
	body := blob[:frameHeader+plen]
	if crc32.ChecksumIEEE(body) != le.Uint32(blob[frameHeader+plen:]) {
		return nil, false
	}
	return blob[frameHeader : frameHeader+plen], true
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	Entries     int   `json:"entries"`      // entries resident in memory
	MemBytes    int64 `json:"mem_bytes"`    // sealed bytes resident in memory
	Hits        int64 `json:"hits"`         // Get calls served (memory, disk, or remote)
	Misses      int64 `json:"misses"`       // Get calls that found nothing usable
	DiskHits    int64 `json:"disk_hits"`    // subset of Hits served by reading the directory
	RemoteHits  int64 `json:"remote_hits"`  // subset of Hits served by the remote tier
	Corrupt     int64 `json:"corrupt"`      // entries rejected by the frame check (treated as misses)
	Evicted     int64 `json:"evicted"`      // memory entries dropped by the SetLimits safety valve
	BytesStored int64 `json:"bytes_stored"` // cumulative sealed bytes accepted by Put
	BytesServed int64 `json:"bytes_served"` // cumulative payload bytes returned by Get
}

// HitRate is Hits over all Gets, 0 when nothing was looked up — the
// serving-layer health number /metrics reports.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// numShards splits the memory tier's data map. Keys are SHA-256, so the
// first byte is uniformly distributed and a power-of-two mask balances
// the shards.
const numShards = 16

// shard is one slice of the memory tier's data map with its own lock, so
// parallel compile workers hitting different keys never serialize on one
// cache-wide mutex.
type shard struct {
	mu  sync.RWMutex
	mem map[Key][]byte // sealed frames; immutable once stored
}

// Cache is a concurrency-safe content-addressed store: an in-memory map
// of sealed entries, optionally backed by a directory for cross-process
// warm starts. The zero value is not usable; call New or NewDir.
//
// Locking: the hot path (Get on a resident key) takes only its shard's
// read lock. Writes additionally take the policy mutex, which owns the
// cache-wide state the strict global insertion-order eviction needs —
// order, byte tally, limits. Lock order is policy, then shard; nothing
// acquires policy while holding a shard lock.
type Cache struct {
	dir string
	// remote, when non-nil, is the shared fleet tier consulted after a
	// memory and disk miss and populated write-through on Put. Set once
	// with SetRemote before the cache is shared; never mutated after.
	remote *Remote

	shards [numShards]shard

	policy sync.Mutex // guards order, memBytes, limits, and eviction
	order  []Key      // memory-tier insertion order, oldest first
	// memBytes is read under either policy (writers) or atomically
	// (Stats); entries counts resident keys the same way.
	memBytes atomic.Int64
	entries  atomic.Int64
	// Memory-tier limits (0 = unbounded); see SetLimits.
	maxEntries int
	maxBytes   int64

	hits, misses, diskHits, remoteHits, corrupt, evicted atomic.Int64
	bytesStored, bytesServed                             atomic.Int64
}

// New returns a memory-only cache.
func New() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].mem = map[Key][]byte{}
	}
	return c
}

// shardOf picks the shard holding k.
func (c *Cache) shardOf(k Key) *shard { return &c.shards[k[0]&(numShards-1)] }

// NewDir returns a cache backed by the given directory, creating it if
// needed. Entries written by other processes are picked up read-through;
// entries this process stores are persisted write-through.
func NewDir(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := New()
	c.dir = dir
	return c, nil
}

// Dir returns the backing directory, or "" for a memory-only cache.
func (c *Cache) Dir() string { return c.dir }

// SetRemote attaches the shared fleet tier: after a memory and disk
// miss, Get consults it (promoting hits into the local tiers), and Put
// publishes entries to it write-through. Remote failures of every kind
// degrade to misses inside the Remote itself, so attaching a tier can
// slow a Get by at most the remote's bounded request deadline, never
// fail it. Must be called before the cache is shared across goroutines.
func (c *Cache) SetRemote(r *Remote) { c.remote = r }

// Remote returns the attached fleet tier, or nil.
func (c *Cache) Remote() *Remote { return c.remote }

// Contains reports whether k is resident in memory or on disk, without
// touching the hit/miss counters or the remote tier — the existence
// probe the cache server's claim election uses.
func (c *Cache) Contains(k Key) bool {
	sh := c.shardOf(k)
	sh.mu.RLock()
	_, ok := sh.mem[k]
	sh.mu.RUnlock()
	if ok {
		return true
	}
	if c.dir != "" {
		if _, err := os.Stat(c.path(k)); err == nil {
			return true
		}
	}
	return false
}

// SetLimits bounds the memory tier: at most maxEntries entries and
// maxBytes sealed bytes (0 disables either bound). When an insert —
// a Put or a disk read-through promotion — pushes the tier over a limit,
// the oldest-inserted entries are dropped until it fits again. This is
// the safety valve a long-lived process (calibrod) needs: without it
// every distinct compilation ever served stays resident forever.
//
// Eviction touches only the memory tier. A directory-backed cache keeps
// the evicted entry on disk, so a later Get re-promotes it (a DiskHit);
// a memory-only cache genuinely forgets it and the caller recompiles.
// An entry larger than maxBytes by itself is dropped immediately — the
// cache is an accelerator, and an un-cacheable entry is a miss, not an
// error. Limits may be changed at any time; shrinking them evicts
// immediately.
func (c *Cache) SetLimits(maxEntries int, maxBytes int64) {
	c.policy.Lock()
	defer c.policy.Unlock()
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	c.evictLocked()
}

// insertLocked stores a sealed frame in the memory tier, maintaining the
// insertion-order list and the byte tally, then applies the limits. The
// caller holds c.policy; the shard lock is taken here. A re-insert keeps
// the key's original place in the insertion order — the eviction policy
// is strictly first-inserted-first-out, overwrite or not.
func (c *Cache) insertLocked(k Key, blob []byte) {
	sh := c.shardOf(k)
	sh.mu.Lock()
	if old, ok := sh.mem[k]; ok {
		c.memBytes.Add(int64(len(blob)) - int64(len(old)))
		sh.mem[k] = blob
	} else {
		sh.mem[k] = blob
		c.order = append(c.order, k)
		c.memBytes.Add(int64(len(blob)))
		c.entries.Add(1)
	}
	sh.mu.Unlock()
	c.evictLocked()
}

// evictLocked drops oldest-inserted entries until the memory tier fits
// the configured limits. The caller holds c.policy.
func (c *Cache) evictLocked() {
	over := func() bool {
		return (c.maxEntries > 0 && c.entries.Load() > int64(c.maxEntries)) ||
			(c.maxBytes > 0 && c.memBytes.Load() > c.maxBytes)
	}
	for len(c.order) > 0 && over() {
		k := c.order[0]
		c.order = c.order[1:]
		sh := c.shardOf(k)
		sh.mu.Lock()
		c.memBytes.Add(-int64(len(sh.mem[k])))
		delete(sh.mem, k)
		sh.mu.Unlock()
		c.entries.Add(-1)
		c.evicted.Add(1)
	}
}

// path is the on-disk location of a key's entry.
func (c *Cache) path(k Key) string { return filepath.Join(c.dir, k.String()+".cce") }

// Get returns the payload stored under k, or ok == false on a miss. A
// frame that fails validation — truncated file, flipped bits, version
// skew — counts as corrupt and reads as a miss; the caller recompiles and
// the subsequent Put heals the entry. The returned payload is shared and
// read-only.
func (c *Cache) Get(k Key) (payload []byte, ok bool) {
	sh := c.shardOf(k)
	sh.mu.RLock()
	blob, inMem := sh.mem[k]
	sh.mu.RUnlock()
	if inMem {
		// Memory entries were validated on the way in, but re-checking
		// keeps one corruption policy for both tiers and costs one CRC.
		if p, ok := Open(blob); ok {
			c.hits.Add(1)
			c.bytesServed.Add(int64(len(p)))
			return p, true
		}
		c.corrupt.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	if c.dir != "" {
		if blob, err := os.ReadFile(c.path(k)); err == nil {
			if p, ok := Open(blob); ok {
				c.policy.Lock()
				c.insertLocked(k, blob)
				c.policy.Unlock()
				c.hits.Add(1)
				c.diskHits.Add(1)
				c.bytesServed.Add(int64(len(p)))
				return p, true
			}
			c.corrupt.Add(1)
		}
	}
	if c.remote != nil {
		// The fleet tier: another daemon may have compiled this first.
		// Remote.Get returns only validated frames and degrades every
		// failure to a miss internally; a hit is promoted into memory
		// (and disk, for cross-restart warmth) like a disk hit is.
		if blob, ok := c.remote.Get(k); ok {
			if p, valid := Open(blob); valid {
				c.policy.Lock()
				c.insertLocked(k, blob)
				c.policy.Unlock()
				if c.dir != "" {
					c.writeFile(k, blob)
				}
				c.hits.Add(1)
				c.remoteHits.Add(1)
				c.bytesServed.Add(int64(len(p)))
				return p, true
			}
			c.corrupt.Add(1)
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores payload under k, sealing it into the checksummed frame and
// persisting it to the backing directory when one is configured. A re-Put
// of identical bytes (content addressing makes that the common case) is
// skipped; a differing entry — a corrupt or version-skewed blob the
// caller just recompiled past — is overwritten, which is what heals it.
// Disk write failures are deliberately swallowed: the cache is an
// accelerator, never a correctness dependency.
func (c *Cache) Put(k Key, payload []byte) {
	blob := Seal(payload)
	sh := c.shardOf(k)
	// Identical-bytes skip under the shard read lock only: on warm builds
	// every re-Put takes this exit, so the common case never touches the
	// policy mutex. A racing non-identical Put just falls through to
	// insertLocked, which keeps the key's order slot — no duplicate.
	sh.mu.RLock()
	same := bytes.Equal(sh.mem[k], blob)
	sh.mu.RUnlock()
	if same {
		return
	}
	c.policy.Lock()
	c.insertLocked(k, blob)
	c.policy.Unlock()
	c.bytesStored.Add(int64(len(blob)))
	if c.dir != "" {
		c.writeFile(k, blob)
	}
	if c.remote != nil {
		// Write-through to the fleet: failures are counted and swallowed
		// inside the Remote, and its circuit breaker keeps a dead server
		// from stalling every compile worker on the cold path.
		c.remote.Put(k, blob)
	}
}

// writeFile persists one sealed entry atomically: a unique temp file in
// the same directory, then rename. Concurrent writers of the same key
// race harmlessly — both rename identical bytes.
func (c *Cache) writeFile(k Key, blob []byte) {
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, c.path(k)); err != nil {
		os.Remove(name)
	}
}

// Len returns the number of entries resident in memory.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Entries:     c.Len(),
		MemBytes:    c.memBytes.Load(),
		Evicted:     c.evicted.Load(),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		DiskHits:    c.diskHits.Load(),
		RemoteHits:  c.remoteHits.Load(),
		Corrupt:     c.corrupt.Load(),
		BytesStored: c.bytesStored.Load(),
		BytesServed: c.bytesServed.Load(),
	}
}
