// Fleet-layer tests: cross-daemon artifact sharing, single-flight
// coalescing, and the determinism differential — the acceptance bar that
// images stay byte-identical with the remote tier off, on, and
// fault-injected.

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/cachetest"
)

// fleetRemote builds a Remote client against a flaky store, tuned fast.
func fleetRemote(t *testing.T, flaky *cachetest.Flaky) *cache.Remote {
	t.Helper()
	ts := flaky.Serve()
	t.Cleanup(ts.Close)
	return cache.NewRemote(cache.RemoteConfig{
		URL:              ts.URL,
		Timeout:          1 * time.Second,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
	})
}

// TestFleetKeySchema walks every JobRequest field: each must either
// change the job key or be named below with the reason the key may ignore
// it, so a field added without a key decision fails here.
func TestFleetKeySchema(t *testing.T) {
	base := JobRequest{App: "Taobao", Scale: 0.05, Config: "ltbo"}.withDefaults(0.25)
	if !fleetEligible(base) || base.validate() != nil {
		t.Fatal("base request must be a valid, fleet-eligible build")
	}

	keyed := map[string]func(*JobRequest){
		"App":     func(r *JobRequest) { r.App = "Wechat" },
		"Scale":   func(r *JobRequest) { r.Scale = 0.06 },
		"Version": func(r *JobRequest) { r.Version = 2 },
		"Delta":   func(r *JobRequest) { r.Delta = 0.2 },
		"Config":  func(r *JobRequest) { r.Config = "plopti" },
		"Trees":   func(r *JobRequest) { r.Trees = 4 },
		"Dedup":   func(r *JobRequest) { r.Dedup = true },
		"Runs":    func(r *JobRequest) { r.Runs = 5 },
	}
	// Fields the key leaves out, each with a check of why that is safe.
	sameImage := func(r JobRequest) bool { return fleetKey(r) == fleetKey(base) }
	notShared := func(r JobRequest) bool { return !fleetEligible(r) }
	refused := func(r JobRequest) bool { return r.validate() != nil }
	unkeyed := map[string]struct {
		mut  func(*JobRequest)
		safe func(JobRequest) bool
	}{
		// Scheduling only: the image is byte-identical at any value.
		"Workers":   {func(r *JobRequest) { r.Workers = 7 }, sameImage},
		"TimeoutMS": {func(r *JobRequest) { r.TimeoutMS = 12345 }, sameImage},
		// Jobs that set these are never served from or published to the fleet.
		"Kind":   {func(r *JobRequest) { r.Kind = KindDebloat }, notShared},
		"Dex":    {func(r *JobRequest) { r.Dex = []byte("dex payload") }, notShared},
		"Verify": {func(r *JobRequest) { r.Verify = true }, notShared},
		"Lint":   {func(r *JobRequest) { r.Lint = true }, notShared},
		// Rewrite-job inputs a build job refuses.
		"Oat":   {func(r *JobRequest) { r.Oat = []byte("oat") }, refused},
		"Roots": {func(r *JobRequest) { r.Roots = []uint32{0} }, refused},
	}

	typ := reflect.TypeOf(JobRequest{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		mut, isKeyed := keyed[name]
		un, isUnkeyed := unkeyed[name]
		switch {
		case isKeyed && isUnkeyed:
			t.Errorf("%s is listed as both keyed and unkeyed", name)
		case isKeyed:
			other := base
			mut(&other)
			if fleetKey(base) == fleetKey(other) {
				t.Errorf("mutating %s did not change the job key", name)
			}
		case isUnkeyed:
			other := base
			un.mut(&other)
			if !un.safe(other) {
				t.Errorf("%s is left out of the job key, but a request that sets it is shared under the same key", name)
			}
		default:
			t.Errorf("JobRequest.%s has no key decision: hash it in fleetKey or list why it may be left out", name)
		}
	}
	for name := range keyed {
		if !fields[name] {
			t.Errorf("keyed list names %s, which JobRequest no longer has", name)
		}
	}
	for name := range unkeyed {
		if !fields[name] {
			t.Errorf("unkeyed list names %s, which JobRequest no longer has", name)
		}
	}
}

func TestFleetEligibility(t *testing.T) {
	ok := JobRequest{App: "Taobao", Config: "ltbo"}.withDefaults(0.25)
	if !fleetEligible(ok) {
		t.Fatal("plain app build should be fleet-eligible")
	}
	for name, mut := range map[string]func(*JobRequest){
		"dex":     func(r *JobRequest) { r.App = ""; r.Dex = []byte("dex payload") },
		"lint":    func(r *JobRequest) { r.Lint = true },
		"verify":  func(r *JobRequest) { r.Verify = true },
		"debloat": func(r *JobRequest) { r.Kind = KindDebloat },
	} {
		req := ok
		mut(&req)
		if fleetEligible(req) {
			t.Errorf("%s job should not be fleet-eligible", name)
		}
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	out := &buildOutput{
		image: []byte("oat image bytes"),
		stats: &JobStats{
			Kind: KindBuild, App: "Taobao", Config: "ltbo",
			Methods: 10, TextBytes: 1234, ImageBytes: 15,
			Workers: 8, CompileUS: 999, WallUS: 1000, LintFindings: -1,
		},
	}
	payload := encodeArtifact(out)
	if payload == nil {
		t.Fatal("encodeArtifact failed")
	}
	dec, ok := decodeArtifact(payload, 42*time.Microsecond, "artifact")
	if !ok {
		t.Fatal("decodeArtifact rejected its own encoding")
	}
	if !bytes.Equal(dec.image, out.image) {
		t.Fatal("image did not round-trip")
	}
	st := dec.stats
	if st.App != "Taobao" || st.Methods != 10 || st.TextBytes != 1234 {
		t.Fatalf("stats did not round-trip: %+v", st)
	}
	if st.CompileUS != 0 || st.WallUS != 0 || st.Workers != 0 {
		t.Fatalf("builder-machine fields not zeroed: %+v", st)
	}
	if st.QueueWaitUS != 42 || st.FleetSource != "artifact" {
		t.Fatalf("local stamps missing: %+v", st)
	}

	// Structural damage reads as not-ok, never a panic.
	for _, bad := range [][]byte{
		nil, {1, 2, 3},
		payload[:6],
		append([]byte{9, 9, 9, 9}, payload[4:]...), // wrong version
	} {
		if _, ok := decodeArtifact(bad, 0, "x"); ok {
			t.Fatalf("decodeArtifact accepted damaged payload %v", bad[:min(8, len(bad))])
		}
	}
	long := append([]byte(nil), payload...)
	long[4] = 0xFF // image length overruns the payload
	long[5] = 0xFF
	if _, ok := decodeArtifact(long, 0, "x"); ok {
		t.Fatal("decodeArtifact accepted overrun image length")
	}
}

// TestFleetCrossDaemonArtifact is the tentpole's core scenario: daemon A
// builds, daemon B serves the identical job from A's published artifact
// without building, and both images match the direct library build.
func TestFleetCrossDaemonArtifact(t *testing.T) {
	flaky := cachetest.NewFlaky(0)
	r := fleetRemote(t, flaky)
	req := JobRequest{App: "Taobao", Scale: 0.05, Config: "ltbo"}

	ca := cache.New()
	ca.SetRemote(r)
	sa, tsa := newTestServer(t, Config{Workers: 2, Cache: ca})
	_, sta := postJob(t, tsa, req)
	if fin := waitTerminal(t, tsa, sta.ID); fin.State != StateDone {
		t.Fatalf("daemon A job: %s (%s)", fin.State, fin.Error)
	}
	imgA := fetchImage(t, tsa, sta.ID)
	if sa.fleetWins.Load() != 1 {
		t.Fatalf("daemon A fleetWins = %d, want 1 (build + publish)", sa.fleetWins.Load())
	}

	// Daemon B: fresh local cache, same remote. The job must be served
	// from the artifact — no local build, misses don't grow.
	cb := cache.New()
	cb.SetRemote(r)
	sb, tsb := newTestServer(t, Config{Workers: 2, Cache: cb})
	_, stb := postJob(t, tsb, req)
	fin := waitTerminal(t, tsb, stb.ID)
	if fin.State != StateDone {
		t.Fatalf("daemon B job: %s (%s)", fin.State, fin.Error)
	}
	if sb.fleetHits.Load() != 1 {
		t.Fatalf("daemon B fleetHits = %d, want 1", sb.fleetHits.Load())
	}
	if fin.Stats.FleetSource != "artifact" {
		t.Fatalf("daemon B FleetSource = %q, want artifact", fin.Stats.FleetSource)
	}
	imgB := fetchImage(t, tsb, stb.ID)
	if !bytes.Equal(imgA, imgB) {
		t.Fatal("fleet-served image differs from builder's image")
	}
	if want := directImage(t, req); !bytes.Equal(imgB, want) {
		t.Fatal("fleet-served image differs from direct library build")
	}

	// Cross-daemon hit rate: B answered without compiling a thing.
	if misses := cb.Stats().Misses; misses != 0 {
		t.Fatalf("daemon B compiled (cache misses = %d) despite artifact hit", misses)
	}
}

// TestFleetCoalesce pins the loser path: with the claim already held by
// someone else, the daemon long-polls and serves the artifact the winner
// publishes instead of building.
func TestFleetCoalesce(t *testing.T) {
	flaky := cachetest.NewFlaky(0)
	r := fleetRemote(t, flaky)
	req := JobRequest{App: "Toutiao", Scale: 0.05, Config: "cto"}
	k := fleetKey(req.withDefaults(0.25))

	// A fake peer wins the election first.
	if res, ok := r.Claim(k); !ok || !res.Winner {
		t.Fatalf("pre-claim: %+v %v", res, ok)
	}

	c := cache.New()
	c.SetRemote(r)
	s, ts := newTestServer(t, Config{Workers: 2, Cache: c, FleetWait: 20 * time.Second})
	_, st := postJob(t, ts, req)

	// The "peer" builds and publishes while our daemon is parked.
	img := directImage(t, req)
	go func() {
		time.Sleep(300 * time.Millisecond)
		out := &buildOutput{image: img, stats: &JobStats{
			Kind: KindBuild, App: "Toutiao", Config: "cto",
			ImageBytes: len(img), LintFindings: -1,
		}}
		r.Put(k, cache.Seal(encodeArtifact(out)))
	}()

	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("coalesced job: %s (%s)", fin.State, fin.Error)
	}
	if fin.Stats.FleetSource != "coalesced" {
		t.Fatalf("FleetSource = %q, want coalesced", fin.Stats.FleetSource)
	}
	if s.fleetCoalesced.Load() != 1 {
		t.Fatalf("fleetCoalesced = %d, want 1", s.fleetCoalesced.Load())
	}
	if got := fetchImage(t, ts, st.ID); !bytes.Equal(got, img) {
		t.Fatal("coalesced image differs from the winner's publication")
	}
}

// TestFleetCoalesceFallback pins the abandoned-winner path: the claim
// holder never publishes, the loser's wait expires, and the job still
// completes — locally, correctly, within its own deadline.
func TestFleetCoalesceFallback(t *testing.T) {
	flaky := cachetest.NewFlaky(0)
	r := fleetRemote(t, flaky)
	req := JobRequest{App: "Toutiao", Scale: 0.05, Config: "cto"}
	k := fleetKey(req.withDefaults(0.25))

	if res, ok := r.Claim(k); !ok || !res.Winner {
		t.Fatalf("pre-claim: %+v %v", res, ok)
	}

	c := cache.New()
	c.SetRemote(r)
	s, ts := newTestServer(t, Config{Workers: 2, Cache: c, FleetWait: 300 * time.Millisecond})
	_, st := postJob(t, ts, req)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("fallback job: %s (%s)", fin.State, fin.Error)
	}
	if fin.Stats.FleetSource != "" {
		t.Fatalf("FleetSource = %q, want local build", fin.Stats.FleetSource)
	}
	if s.fleetFallbacks.Load() != 1 {
		t.Fatalf("fleetFallbacks = %d, want 1", s.fleetFallbacks.Load())
	}
	if want := directImage(t, req); !bytes.Equal(fetchImage(t, ts, st.ID), want) {
		t.Fatal("fallback image differs from direct build")
	}
}

// TestFleetDeterminismDifferential is the acceptance bar: the same job
// set produces byte-identical images with no remote tier, a healthy
// remote tier, and a remote tier cycling through every fault mode
// mid-run. The flaky daemon may win, lose, miss, or fall back on any
// given job — whatever path it takes, the bytes must match.
func TestFleetDeterminismDifferential(t *testing.T) {
	reqs := []JobRequest{
		{App: "Toutiao", Scale: 0.05, Config: "ltbo"},
		{App: "Taobao", Scale: 0.05, Config: "plopti"},
		{App: "Toutiao", Scale: 0.05, Config: "ltbo"}, // repeat: warm path
		{App: "Fanqie", Scale: 0.05, Config: "cto"},
	}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = directImage(t, req)
	}

	run := func(t *testing.T, ts *httptest.Server, perJob func(i int)) {
		t.Helper()
		for i, req := range reqs {
			if perJob != nil {
				perJob(i)
			}
			_, st := postJob(t, ts, req)
			fin := waitTerminal(t, ts, st.ID)
			if fin.State != StateDone {
				t.Fatalf("job %d: %s (%s)", i, fin.State, fin.Error)
			}
			if got := fetchImage(t, ts, st.ID); !bytes.Equal(got, want[i]) {
				t.Fatalf("job %d (%s/%s): image differs from direct build", i, req.App, req.Config)
			}
		}
	}

	t.Run("remote-off", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 2, Cache: cache.New()})
		run(t, ts, nil)
	})
	t.Run("remote-on", func(t *testing.T) {
		flaky := cachetest.NewFlaky(0)
		c := cache.New()
		c.SetRemote(fleetRemote(t, flaky))
		_, ts := newTestServer(t, Config{Workers: 2, Cache: c})
		run(t, ts, nil)
	})
	t.Run("remote-flaky", func(t *testing.T) {
		flaky := cachetest.NewFlaky(0)
		flaky.SetDelay(1500 * time.Millisecond)
		c := cache.New()
		c.SetRemote(fleetRemote(t, flaky))
		_, ts := newTestServer(t, Config{Workers: 2, Cache: c, FleetWait: time.Second})
		faults := []cachetest.Fault{
			cachetest.FaultDrop, cachetest.Fault500,
			cachetest.FaultCorrupt, cachetest.FaultSkew,
		}
		run(t, ts, func(i int) {
			flaky.SetFault(faults[i%len(faults)])
		})
	})
}

// TestFleetPromExposition checks the remote-tier counter families appear
// in the exposition when (and only when) a remote tier is configured.
func TestFleetPromExposition(t *testing.T) {
	flaky := cachetest.NewFlaky(0)
	c := cache.New()
	c.SetRemote(fleetRemote(t, flaky))
	_, ts := newTestServer(t, Config{Workers: 1, Cache: c})
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	doc := buf.String()
	for _, fam := range []string{
		"calibrod_fleet_jobs_total", "calibrod_fleet_wins_total",
		"calibrod_fleet_fallbacks_total",
		"calibrod_cache_remote_hits_total", "calibrod_cache_remote_misses_total",
		"calibrod_cache_remote_errors_total", "calibrod_cache_remote_puts_total",
		"calibrod_cache_remote_breaker_opens_total",
	} {
		if !strings.Contains(doc, "# TYPE "+fam+" counter") {
			t.Errorf("exposition missing family %s", fam)
		}
	}

	// And absent without a remote.
	_, ts2 := newTestServer(t, Config{Workers: 1, Cache: cache.New()})
	resp2, err := http.Get(ts2.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	buf2 := new(bytes.Buffer)
	buf2.ReadFrom(resp2.Body)
	if strings.Contains(buf2.String(), "calibrod_fleet_jobs_total") {
		t.Error("fleet families exposed without a remote tier")
	}
}
