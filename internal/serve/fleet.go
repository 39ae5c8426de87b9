// Fleet layer: whole-job artifact sharing and cross-daemon single-flight
// over the remote cache tier. Where internal/cache shares per-method
// compilations, this file shares finished builds — a job's image and
// stats sealed under a content key of the build inputs — so N daemons
// behind a router serve one logical cache.
//
// The flow wraps buildLocal:
//
//  1. eligible job + remote tier configured → Get the artifact by job
//     key; a hit serves the job without occupying this daemon's compile
//     workers at all;
//  2. miss → Claim the key. Exactly one claimant fleet-wide wins; the
//     winner builds locally and publishes the artifact, fulfilling the
//     claim. Losers long-poll the artifact (GetWait) up to FleetWait and
//     coalesce onto the winner's build.
//  3. any failure anywhere — claim unreachable, long-poll timeout,
//     artifact undecodable — falls back to building locally. The fleet
//     tier inherits the cache's contract: it can only ever save work,
//     never fail or wedge a job.
//
// Determinism is why coalescing is sound: an eligible job's image is a
// pure function of the fields the job key hashes (Workers deliberately
// excluded — the parallel-build work proved images are byte-identical at
// any pool width), so another daemon's artifact is byte-identical to
// what a local build would have produced. The differential test in
// fleet_test.go pins exactly that, remote off, on, and fault-injected.

package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
)

// fleetJobSchema versions the job key layout. Bumping it orphans every
// published artifact at once — the safe response to any change in what
// the key covers or what the artifact encodes.
const fleetJobSchema = "calibro/job-key/v1"

// fleetEligible reports whether a job may be served from or published to
// the fleet store. Only profile-named build jobs qualify: their inputs
// are fully described by the request fields the key hashes. Dex payloads
// are excluded (hashing megabytes of client payload buys little over
// just building), as are lint and verify jobs (their outputs carry
// findings the artifact codec does not).
func fleetEligible(req JobRequest) bool {
	return req.Kind == KindBuild && req.App != "" && len(req.Dex) == 0 &&
		!req.Lint && !req.Verify
}

// fleetKey is the content address of an eligible job's output: every
// request field that steers the image, and nothing that doesn't.
// Workers is excluded on purpose — the determinism contract makes the
// image byte-identical at any pool width, which is precisely what lets
// daemons with different -j share artifacts.
func fleetKey(req JobRequest) cache.Key {
	h := cache.NewHasher(fleetJobSchema)
	h.Str(req.App)
	h.Uint(math.Float64bits(req.Scale))
	h.Int(int64(req.Version))
	h.Uint(math.Float64bits(req.Delta))
	h.Str(req.Config)
	h.Int(int64(req.Trees))
	h.Int(int64(req.Shards))
	h.Int(int64(req.Rounds))
	h.Bool(req.Dedup)
	h.Int(int64(req.Runs))
	return h.Sum()
}

// Artifact payload layout (little-endian): format version, image length,
// image bytes, stats JSON to the end. The payload travels inside a CCE1
// frame, which owns integrity; this codec owns only structure.
const fleetArtifactVersion = 1

// encodeArtifact serializes a finished build for publication. Timing
// fields and Workers are zeroed: they describe the builder's machine,
// not the artifact, and zeroing them keeps the published bytes a pure
// function of the job key.
func encodeArtifact(out *buildOutput) []byte {
	stats := *out.stats
	stats.QueueWaitUS = 0
	stats.LoadUS = 0
	stats.CompileUS = 0
	stats.OutlineUS = 0
	stats.LinkUS = 0
	stats.VerifyUS = 0
	stats.WallUS = 0
	stats.Workers = 0
	stats.FleetSource = ""
	sj, err := json.Marshal(&stats)
	if err != nil {
		return nil
	}
	buf := make([]byte, 8+len(out.image)+len(sj))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], fleetArtifactVersion)
	le.PutUint32(buf[4:], uint32(len(out.image)))
	copy(buf[8:], out.image)
	copy(buf[8+len(out.image):], sj)
	return buf
}

// decodeArtifact parses a published artifact back into a buildOutput,
// stamping the local queue wait and provenance. ok == false on any
// structural defect — the caller builds locally, it never errors.
func decodeArtifact(payload []byte, queueWait time.Duration, source string) (*buildOutput, bool) {
	if len(payload) < 8 {
		return nil, false
	}
	le := binary.LittleEndian
	if le.Uint32(payload[0:]) != fleetArtifactVersion {
		return nil, false
	}
	ilen := int(le.Uint32(payload[4:]))
	if ilen < 0 || 8+ilen > len(payload) {
		return nil, false
	}
	// Copy the image out of the cache's shared payload: job records
	// outlive any cache entry and must never alias store memory.
	image := append([]byte(nil), payload[8:8+ilen]...)
	stats := &JobStats{}
	if err := json.Unmarshal(payload[8+ilen:], stats); err != nil {
		return nil, false
	}
	stats.QueueWaitUS = queueWait.Microseconds()
	stats.FleetSource = source
	return &buildOutput{image: image, stats: stats}, true
}

// remote returns the fleet tier the server should use, or nil.
func (s *Server) remote() *cache.Remote {
	return s.cfg.Remote
}

// fetchArtifact tries to serve the job from a published artifact.
func (s *Server) fetchArtifact(r *cache.Remote, k cache.Key, queueWait time.Duration, source string) (*buildOutput, bool) {
	sealed, ok := r.Get(k)
	if !ok {
		return nil, false
	}
	payload, valid := cache.Open(sealed)
	if !valid {
		return nil, false
	}
	return decodeArtifact(payload, queueWait, source)
}

// build is what runJob executes: the fleet wrapper around buildLocal.
// With no remote tier, or for an ineligible job, it is buildLocal.
func (s *Server) build(ctx context.Context, req JobRequest, queueWait time.Duration, tr *obs.Tracer) (*buildOutput, error) {
	r := s.remote()
	if r == nil || !fleetEligible(req) {
		return s.buildLocal(ctx, req, queueWait, tr)
	}
	k := fleetKey(req)

	// Fast path: someone already published this exact build.
	if out, ok := s.fetchArtifact(r, k, queueWait, "artifact"); ok {
		s.fleetHits.Add(1)
		return out, nil
	}

	// Single-flight election. An unreachable election is a local build —
	// never a failure.
	res, ok := r.Claim(k)
	if !ok {
		return s.buildLocal(ctx, req, queueWait, tr)
	}
	if res.Ready {
		// Published between our Get and the claim; fetch again.
		if out, ok := s.fetchArtifact(r, k, queueWait, "artifact"); ok {
			s.fleetHits.Add(1)
			return out, nil
		}
		return s.buildLocal(ctx, req, queueWait, tr)
	}
	if !res.Winner {
		// A peer is already building this. Wait for its artifact, bounded
		// by FleetWait and the job's own context; a winner that crashes or
		// stalls costs us the wait, then we build anyway.
		if sealed, ok := r.GetWait(ctx, k, s.cfg.FleetWait); ok {
			if payload, valid := cache.Open(sealed); valid {
				if out, ok := decodeArtifact(payload, queueWait, "coalesced"); ok {
					s.fleetCoalesced.Add(1)
					return out, nil
				}
			}
		}
		s.fleetFallbacks.Add(1)
		return s.buildLocal(ctx, req, queueWait, tr)
	}

	// We won: build and publish. The Put fulfils the claim, waking every
	// long-polling loser. On error the claim ages out (server TTL) and
	// the losers fall back after FleetWait — degraded, not deadlocked.
	out, err := s.buildLocal(ctx, req, queueWait, tr)
	if err == nil && out.stats != nil {
		if payload := encodeArtifact(out); payload != nil {
			if r.Put(k, cache.Seal(payload)) {
				s.fleetWins.Add(1)
			}
		}
	}
	return out, err
}
