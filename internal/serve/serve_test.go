// The serving contract, end to end over real HTTP: admission and
// backpressure, deadlines and cancellation actually stopping work (pinned
// via the tracer), drain semantics, and — the one that matters most —
// images from the daemon byte-identical to direct core builds, including
// under concurrent mixed-configuration load on a shared cache.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/workload"
)

// newTestServer builds a Server and an httptest front end, both torn down
// with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// queueOnlyServer builds a Server with NO workers: jobs queue and stay
// queued, which makes admission and cancel-while-queued deterministic.
func queueOnlyServer(depth int) *Server {
	cfg := Config{QueueDepth: depth}.withDefaults()
	return &Server{
		cfg:   cfg,
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  map[string]*job{},
	}
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, *JobStatus) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return &http.Response{StatusCode: resp.StatusCode, Header: resp.Header}, &JobStatus{Error: string(b)}
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp, &st
}

// waitTerminal long-polls the status endpoint until the job is terminal.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "?wait=5s")
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if terminal(st.State) {
			return &st
		}
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return nil
}

func fetchImage(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/image")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("image fetch: status %d: %s", resp.StatusCode, b)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// directImage reproduces what the daemon should have built, via the
// library entry points with no cache and no tracer.
func directImage(t *testing.T, req JobRequest) []byte {
	t.Helper()
	req = req.withDefaults(0.25)
	app, man, err := loadApp(req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.Named(req.Config, req.Trees)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rounds = req.Rounds
	cfg.DedupFunctions = req.Dedup
	cfg.VerifyImage = req.Verify
	cfg.Workers = req.Workers

	var res *core.Result
	if cfg.HotFilter {
		res, _, err = core.ProfileGuidedBuildCtx(context.Background(), app, cfg, workload.Script(man, req.Runs, 1))
	} else {
		res, err = core.BuildCtx(context.Background(), app, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Image.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSubmitPollFetchHappyPath(t *testing.T) {
	tr := obs.New()
	c := cache.New()
	_, ts := newTestServer(t, Config{Workers: 2, Cache: c, Tracer: tr})

	req := JobRequest{App: "Taobao", Scale: 0.05, Config: "plopti", Lint: true}
	resp, st := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	if st.ID == "" || st.State != StateQueued && st.State != StateRunning && st.State != StateDone {
		t.Fatalf("submit response: %+v", st)
	}

	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Stats == nil {
		t.Fatal("done status has no stats")
	}
	if fin.Stats.App != "Taobao" || fin.Stats.Config != "plopti" {
		t.Errorf("stats identify %s/%s, want Taobao/plopti", fin.Stats.App, fin.Stats.Config)
	}
	if fin.Stats.ImageBytes <= 0 || fin.Stats.Methods <= 0 {
		t.Errorf("stats sizes not populated: %+v", fin.Stats)
	}
	if fin.Stats.LintFindings < 0 {
		t.Error("lint was requested but LintFindings is -1")
	}

	img := fetchImage(t, ts, st.ID)
	if len(img) != fin.Stats.ImageBytes {
		t.Errorf("image is %d bytes, stats say %d", len(img), fin.Stats.ImageBytes)
	}
	if want := directImage(t, req); !bytes.Equal(img, want) {
		t.Errorf("daemon image (%d bytes) differs from direct build (%d bytes)", len(img), len(want))
	}

	// The stats endpoint agrees with the embedded stats.
	resp2, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats JobStats
	err = json.NewDecoder(resp2.Body).Decode(&stats)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ImageBytes != fin.Stats.ImageBytes {
		t.Errorf("stats endpoint image_bytes %d, status embed %d", stats.ImageBytes, fin.Stats.ImageBytes)
	}

	// Lint findings are fetchable (the list may be empty; the route must
	// answer 200 since lint was requested).
	resp3, err := http.Get(ts.URL + "/jobs/" + st.ID + "/lint")
	if err != nil {
		t.Fatal(err)
	}
	var lint []FindingJSON
	err = json.NewDecoder(resp3.Body).Decode(&lint)
	resp3.Body.Close()
	if err != nil || resp3.StatusCode != http.StatusOK {
		t.Fatalf("lint fetch: status %d err %v", resp3.StatusCode, err)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"no input", JobRequest{Config: "plopti"}},
		{"both inputs", JobRequest{App: "Taobao", Dex: []byte("x"), Config: "plopti"}},
		{"unknown app", JobRequest{App: "NotAnApp", Config: "plopti"}},
		{"unknown config", JobRequest{App: "Taobao", Config: "turbo"}},
	}
	for _, tc := range cases {
		resp, st := postJob(t, ts, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, st.Error)
		}
	}
}

// TestSubmitBodyStrict: the submit decoder refuses unknown fields and
// anything after the JSON object but whitespace; each refusal is a 400
// counted as invalid.
func TestSubmitBodyStrict(t *testing.T) {
	s := queueOnlyServer(8)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		name, body string
		want       int
	}{
		{"known fields", `{"app":"Taobao","config":"ltbo"}`, http.StatusAccepted},
		{"trailing whitespace", "{\"app\":\"Taobao\"}\n\t ", http.StatusAccepted},
		{"misspelled field", `{"app":"Taobao","confg":"ltbo"}`, http.StatusBadRequest},
		{"unknown field", `{"app":"Taobao","bogus":1}`, http.StatusBadRequest},
		{"second object", `{"app":"Taobao"} {"app":"Taobao"}`, http.StatusBadRequest},
		{"trailing garbage", `{"app":"Taobao"}x`, http.StatusBadRequest},
		{"trailing bracket", `{"app":"Taobao"}]`, http.StatusBadRequest},
		{"trailing number", `{"app":"Taobao"} 1`, http.StatusBadRequest},
	}
	refused := 0
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, msg, tc.want)
		}
		if tc.want == http.StatusBadRequest {
			refused++
		}
	}
	if got := s.invalid.Load(); got != int64(refused) {
		t.Errorf("invalid = %d, want %d", got, refused)
	}
}

func TestBackpressureFullQueue(t *testing.T) {
	// No workers: every admitted job stays queued, so the queue fills
	// deterministically.
	s := queueOnlyServer(1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{App: "Taobao", Scale: 0.05}
	if resp, st := postJob(t, ts, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, st.Error)
	}
	resp, st := postJob(t, ts, req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d (%s), want 429", resp.StatusCode, st.Error)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response has no Retry-After header")
	}
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// The rejection is visible in /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.QueueDepth != 1 || m.QueueCap != 1 || m.JobsRejected != 1 || m.JobsAccepted != 1 {
		t.Errorf("metrics = depth %d cap %d rejected %d accepted %d, want 1/1/1/1",
			m.QueueDepth, m.QueueCap, m.JobsRejected, m.JobsAccepted)
	}
}

// TestDeadlineExpiredJobStopsWork pins the acceptance criterion: once a
// job's deadline fires, the daemon stops doing work for it — the tracer
// records no new compile/outline spans afterwards, and far fewer compile
// spans than the app has methods.
func TestDeadlineExpiredJobStopsWork(t *testing.T) {
	tr := obs.New()
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: tr})

	// Kuaishou at full scale builds in ~1s; a 30ms deadline expires
	// mid-compile.
	req := JobRequest{App: "Kuaishou", Scale: 1.0, Config: "plopti", TimeoutMS: 30}
	resp, st := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("job finished %s, want failed (deadline)", fin.State)
	}
	if !strings.Contains(fin.Error, "deadline") {
		t.Errorf("failure reason %q does not mention the deadline", fin.Error)
	}

	spanCount := func() int64 {
		snap := tr.Snapshot()
		var n int64
		for cat, ts := range snap.Tasks {
			if cat == "compile" || strings.HasPrefix(cat, "outline") {
				n += int64(ts.Count)
			}
		}
		return n
	}
	after := spanCount()
	prof, _ := workload.AppByName("Kuaishou", 1.0)
	if after >= int64(prof.Methods) {
		t.Errorf("%d compile/outline spans recorded for a %d-method app that should have died at ~30ms",
			after, prof.Methods)
	}
	time.Sleep(150 * time.Millisecond)
	if later := spanCount(); later != after {
		t.Errorf("spans kept appearing after the job failed: %d -> %d", after, later)
	}

	// The image endpoint refuses with the job's failure.
	iresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/image")
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusConflict {
		t.Errorf("image fetch of failed job: status %d, want 409", iresp.StatusCode)
	}
}

// TestCancelMidBuild cancels over HTTP while the build is running and
// asserts the job lands in canceled with no further spans.
func TestCancelMidBuild(t *testing.T) {
	tr := obs.New()
	s, ts := newTestServer(t, Config{Workers: 1, Tracer: tr})

	req := JobRequest{App: "Kuaishou", Scale: 1.0, Config: "plopti"}
	resp, st := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	j, ok := s.lookup(st.ID)
	if !ok {
		t.Fatal("submitted job not registered")
	}
	// Wait for the worker to pick it up, then cancel. The build takes ~1s,
	// so the cancel lands mid-flight.
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cur := j.status(); cur.State == StateRunning {
			break
		} else if terminal(cur.State) {
			t.Fatalf("job reached %s before it could be cancelled", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("job finished %s, want canceled", fin.State)
	}
	count := func() int {
		n := 0
		for cat, tsk := range tr.Snapshot().Tasks {
			if cat == "compile" || strings.HasPrefix(cat, "outline") {
				n += tsk.Count
			}
		}
		return n
	}
	after := count()
	time.Sleep(150 * time.Millisecond)
	if later := count(); later != after {
		t.Errorf("spans kept appearing after cancellation: %d -> %d", after, later)
	}
}

// TestCancelQueuedJob cancels a job that never reached a worker: it must
// finish immediately as canceled.
func TestCancelQueuedJob(t *testing.T) {
	s := queueOnlyServer(4)
	j, err := s.submit(JobRequest{App: "Taobao", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	s.cancelJob(j)
	select {
	case <-j.doneCh:
	case <-time.After(time.Second):
		t.Fatal("cancelled queued job did not finish")
	}
	if st := j.status(); st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if got := s.canceled.Load(); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
}

// TestConcurrentIdenticalSubmissions drives the same job from several
// clients at once against a shared cache: every image must be identical
// and the cache must take hits.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	c := cache.New()
	_, ts := newTestServer(t, Config{Workers: 2, Cache: c})

	req := JobRequest{App: "Fanqie", Scale: 0.05, Config: "plopti"}
	const n = 4
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := postJob(t, ts, req)
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("submit %d: status %d: %s", i, resp.StatusCode, st.Error)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var first []byte
	for i, id := range ids {
		fin := waitTerminal(t, ts, id)
		if fin.State != StateDone {
			t.Fatalf("job %d finished %s (%s)", i, fin.State, fin.Error)
		}
		img := fetchImage(t, ts, id)
		if first == nil {
			first = img
		} else if !bytes.Equal(img, first) {
			t.Fatalf("job %d image differs from job 0", i)
		}
	}
	if st := c.Stats(); st.Hits == 0 {
		t.Errorf("cache took no hits across %d identical submissions: %+v", n, st)
	}
	if !bytes.Equal(first, directImage(t, req)) {
		t.Error("cached daemon image differs from direct build")
	}
}

// TestMixedConfigLoadByteIdentical is the central determinism check: the
// whole evaluation ladder submitted concurrently to one daemon sharing a
// cache and a tracer, every image byte-identical to a direct library
// build of the same app and configuration.
func TestMixedConfigLoadByteIdentical(t *testing.T) {
	c := cache.New()
	tr := obs.New()
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 16, Cache: c, Tracer: tr})

	configs := []string{"baseline", "cto", "ltbo", "plopti", "hfopti"}
	reqs := make([]JobRequest, len(configs))
	ids := make([]string, len(configs))
	for i, cfg := range configs {
		reqs[i] = JobRequest{App: "Meituan", Scale: 0.05, Config: cfg, Dedup: true}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(configs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, st := postJob(t, ts, reqs[i])
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("%s: status %d: %s", configs[i], resp.StatusCode, st.Error)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		fin := waitTerminal(t, ts, id)
		if fin.State != StateDone {
			t.Fatalf("%s finished %s (%s)", configs[i], fin.State, fin.Error)
		}
		img := fetchImage(t, ts, id)
		if want := directImage(t, reqs[i]); !bytes.Equal(img, want) {
			t.Errorf("%s: daemon image (%d bytes) != direct build (%d bytes)", configs[i], len(img), len(want))
		}
	}
}

// TestDexPayloadSubmit submits a serialized dex container instead of a
// profile name.
func TestDexPayloadSubmit(t *testing.T) {
	prof, _ := workload.AppByName("Taobao", 0.05)
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, JobRequest{Dex: payload, Config: "ltbo"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Stats.Methods != app.NumMethods() {
		t.Errorf("built %d methods, payload has %d", fin.Stats.Methods, app.NumMethods())
	}
}

// TestBlankDexPayloadFails: a dex job whose payload holds no methods
// fails with workload.Load's refusal under every config, as calibro -i
// does.
func TestBlankDexPayloadFails(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, cfg := range []string{"baseline", "cto", "ltbo", "plopti", "hfopti"} {
		resp, st := postJob(t, ts, JobRequest{Dex: []byte(" \n\t\n"), Config: cfg})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit: status %d: %s", cfg, resp.StatusCode, st.Error)
		}
		fin := waitTerminal(t, ts, st.ID)
		if fin.State != StateFailed || !strings.Contains(fin.Error, "workload: app has no methods") {
			t.Errorf("%s: job %s (%s), want failed with the no-methods refusal", cfg, fin.State, fin.Error)
		}
	}
}

// TestTerminalJobsDropPayload: a terminal job's record no longer holds
// its request payload, and its endpoints still answer — for a dex job
// that finished and for a debloat job cancelled while queued.
func TestTerminalJobsDropPayload(t *testing.T) {
	prof, _ := workload.AppByName("Taobao", 0.05)
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	noPayload := func(j *job) {
		t.Helper()
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.req.Dex != nil || j.req.Oat != nil {
			t.Errorf("%s job %s keeps %d dex and %d oat bytes", j.state, j.id, len(j.req.Dex), len(j.req.Oat))
		}
	}
	get := func(ts *httptest.Server, id, endpoint string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs/" + id + endpoint)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s of %s: status %d, want %d", endpoint, id, resp.StatusCode, want)
		}
	}

	s, ts := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, JobRequest{Dex: payload, Config: "ltbo", Lint: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	j, _ := s.lookup(st.ID)
	noPayload(j)
	for _, ep := range []string{"/stats", "/lint", "/image"} {
		get(ts, st.ID, ep, http.StatusOK)
	}

	q := queueOnlyServer(4)
	qj, err := q.submit(JobRequest{Kind: KindDebloat, Oat: fetchImage(t, ts, st.ID)})
	if err != nil {
		t.Fatal(err)
	}
	q.cancelJob(qj)
	<-qj.doneCh
	noPayload(qj)
	qts := httptest.NewServer(q.Handler())
	defer qts.Close()
	for _, ep := range []string{"/stats", "/lint", "/image"} {
		get(qts, qj.id, ep, http.StatusConflict)
	}
}

// TestDrain: queued and running jobs finish, later submits are refused,
// and the drain state shows in /healthz.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := JobRequest{App: "Taobao", Scale: 0.05}
	var sts []*JobStatus
	for i := 0; i < 3; i++ {
		resp, st := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, st.Error)
		}
		sts = append(sts, st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, st := range sts {
		j, ok := s.lookup(st.ID)
		if !ok {
			t.Fatalf("job %d lost", i)
		}
		if got := j.status(); got.State != StateDone {
			t.Errorf("job %d drained as %s (%s), want done", i, got.State, got.Error)
		}
	}

	if _, err := s.submit(req); err != ErrDraining {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
	resp, _ := postJob(t, ts, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("HTTP submit after drain: status %d, want 503", resp.StatusCode)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(hresp.Body).Decode(&h)
	hresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("healthz after drain: %q, want draining", h.Status)
	}

	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestMetricsSurface checks the /metrics fields the acceptance criteria
// name: queue depth, queue-wait percentiles, cache hit rate, telemetry.
func TestMetricsSurface(t *testing.T) {
	c := cache.New()
	tr := obs.New()
	_, ts := newTestServer(t, Config{Workers: 1, Cache: c, Tracer: tr})

	req := JobRequest{App: "Taobao", Scale: 0.05}
	for i := 0; i < 2; i++ {
		resp, st := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		if fin := waitTerminal(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsDone != 2 || m.JobsAccepted != 2 {
		t.Errorf("done/accepted = %d/%d, want 2/2", m.JobsDone, m.JobsAccepted)
	}
	if m.QueueWait.Count != 2 {
		t.Errorf("queue-wait samples = %d, want 2", m.QueueWait.Count)
	}
	if m.QueueWait.P95US < m.QueueWait.P50US {
		t.Errorf("queue-wait p95 %d < p50 %d", m.QueueWait.P95US, m.QueueWait.P50US)
	}
	if m.Cache == nil {
		t.Fatal("metrics carry no cache stats despite a configured cache")
	}
	// The second identical job hits the per-method compile cache.
	if m.Cache.Hits == 0 || m.CacheHitRate <= 0 {
		t.Errorf("cache hit rate = %v (hits %d), want > 0", m.CacheHitRate, m.Cache.Hits)
	}
	if m.Telemetry == nil || m.Telemetry.Tasks["compile"].Count == 0 {
		t.Error("metrics carry no telemetry despite a configured tracer")
	}
}

// TestLongPollReturnsEarly: a ?wait poll on a finished job answers
// immediately rather than sleeping out the window.
func TestLongPollReturnsEarly(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, JobRequest{App: "Taobao", Scale: 0.05})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitTerminal(t, ts, st.ID)

	t0 := time.Now()
	presp, err := http.Get(ts.URL + "/jobs/" + st.ID + "?wait=30s")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if el := time.Since(t0); el > 5*time.Second {
		t.Errorf("poll of a finished job took %v", el)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/jobs/nope", "/jobs/nope/image", "/jobs/nope/stats", "/jobs/nope/lint"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// linkedTaobao builds the small Taobao profile directly under cfg and
// returns the build with its serialized image, the input of the rewrite
// job tests.
func linkedTaobao(t *testing.T, cfg core.Config) (*core.Result, []byte) {
	t.Helper()
	prof, ok := workload.AppByName("Taobao", 0.05)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Image.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return res, data
}

// TestRewriteJobsReportResolvedWorkers: under the daemon's default pool
// width (BuildWorkers 0), debloat and reoutline jobs report the width
// their pool actually ran at, as build jobs do.
func TestRewriteJobsReportResolvedWorkers(t *testing.T) {
	_, oatData := linkedTaobao(t, core.CTOOnly())
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, kind := range []string{KindDebloat, KindReoutline} {
		resp, st := postJob(t, ts, JobRequest{Kind: kind, Oat: oatData})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit: status %d: %s", kind, resp.StatusCode, st.Error)
		}
		final := waitTerminal(t, ts, st.ID)
		if final.State != StateDone {
			t.Fatalf("%s job state %s (%s), want done", kind, final.State, final.Error)
		}
		if got, want := final.Stats.Workers, par.Workers(0); got != want {
			t.Errorf("%s job reports workers %d, its pool ran %d wide", kind, got, want)
		}
	}
}

// TestDebloatJob drives the debloat job kind end to end over HTTP: build
// an image directly, submit it for debloating rooted at the first
// activity, and check the returned image is smaller-or-equal, parses, and
// the stats report the removal.
func TestDebloatJob(t *testing.T) {
	res, oatData := linkedTaobao(t, core.CTOLTBO())

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, JobRequest{Kind: KindDebloat, Oat: oatData, Roots: []uint32{0}, Lint: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state %s (%s), want done", final.State, final.Error)
	}
	stats := final.Stats
	if stats == nil || stats.Kind != KindDebloat {
		t.Fatalf("stats = %+v, want debloat kind", stats)
	}
	if stats.TextBytes > stats.TextBytesBefore {
		t.Errorf("debloat grew text: %d -> %d", stats.TextBytesBefore, stats.TextBytes)
	}
	if stats.TextBytesBefore != res.Image.TextBytes() {
		t.Errorf("stats.TextBytesBefore = %d, input had %d", stats.TextBytesBefore, res.Image.TextBytes())
	}
	if stats.LintFindings != 0 {
		t.Errorf("debloated image has %d lint findings", stats.LintFindings)
	}
	small := fetchImage(t, ts, st.ID)
	img, err := oat.Unmarshal(small)
	if err != nil {
		t.Fatalf("debloated image does not parse: %v", err)
	}
	if img.TextBytes() != stats.TextBytes {
		t.Errorf("fetched image text %d, stats say %d", img.TextBytes(), stats.TextBytes)
	}
}

// TestReoutlineJob drives the reoutline job kind end to end over HTTP:
// build an outlining-disabled image directly, submit it for post-hoc
// re-outlining, and check the returned image is smaller, parses, and the
// stats report the lift census.
func TestReoutlineJob(t *testing.T) {
	res, oatData := linkedTaobao(t, core.CTOOnly())

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, st := postJob(t, ts, JobRequest{Kind: KindReoutline, Oat: oatData, Lint: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state %s (%s), want done", final.State, final.Error)
	}
	stats := final.Stats
	if stats == nil || stats.Kind != KindReoutline {
		t.Fatalf("stats = %+v, want reoutline kind", stats)
	}
	if stats.TextBytes >= stats.TextBytesBefore {
		t.Errorf("reoutline did not shrink text: %d -> %d", stats.TextBytesBefore, stats.TextBytes)
	}
	if stats.TextBytesBefore != res.Image.TextBytes() {
		t.Errorf("stats.TextBytesBefore = %d, input had %d", stats.TextBytesBefore, res.Image.TextBytes())
	}
	if stats.MethodsLifted == 0 || stats.OutlinedCreated == 0 {
		t.Errorf("lift census looks empty: lifted=%d created=%d", stats.MethodsLifted, stats.OutlinedCreated)
	}
	if stats.LintFindings != 0 {
		t.Errorf("re-outlined image has %d lint findings", stats.LintFindings)
	}
	small := fetchImage(t, ts, st.ID)
	img, err := oat.Unmarshal(small)
	if err != nil {
		t.Fatalf("re-outlined image does not parse: %v", err)
	}
	if img.TextBytes() != stats.TextBytes {
		t.Errorf("fetched image text %d, stats say %d", img.TextBytes(), stats.TextBytes)
	}

	// The daemon adds scheduling, never output: its image must be
	// byte-identical to a direct core.ReoutlineImageCtx of the same input.
	direct, _, err := core.ReoutlineImageCtx(context.Background(), res.Image, core.ReoutlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(small, want) {
		t.Errorf("daemon re-outlined image differs from the direct pass (%d vs %d bytes)", len(small), len(want))
	}
}

// TestDebloatJobValidation pins the request-shape errors for the new
// kind.
func TestDebloatJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		req  JobRequest
	}{
		{"debloat without oat", JobRequest{Kind: KindDebloat}},
		{"debloat with app", JobRequest{Kind: KindDebloat, Oat: []byte("x"), App: "Taobao"}},
		{"build with oat", JobRequest{App: "Taobao", Oat: []byte("x")}},
		{"build with roots", JobRequest{App: "Taobao", Roots: []uint32{1}}},
		{"unknown kind", JobRequest{Kind: "shrink", App: "Taobao"}},
		{"reoutline without oat", JobRequest{Kind: KindReoutline}},
		{"reoutline with app", JobRequest{Kind: KindReoutline, Oat: []byte("x"), App: "Taobao"}},
		{"reoutline with roots", JobRequest{Kind: KindReoutline, Oat: []byte("x"), Roots: []uint32{1}}},
	}
	for _, tc := range cases {
		resp, st := postJob(t, ts, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, st.Error)
		}
	}
}
