// The observability contract: per-job traces are fetchable and
// well-formed, the Prometheus exposition parses cleanly with no
// duplicate families, logging changes no output byte, terminal jobs age
// out of the registry, and oversized submits bounce with 413 before they
// occupy memory.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestJobTraceEndpoint: a finished job's trace is valid Chrome
// trace-event JSON containing the lifecycle spans, and an unknown job
// answers 404.
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Scale: 0.05, Tracer: obs.New()})
	resp, st := postJob(t, ts, JobRequest{App: "Taobao", Config: "ltbo"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	if got := waitTerminal(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("job state %s: %s", got.State, got.Error)
	}

	tresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.TS < 0 || ev.Dur < 0 {
			t.Errorf("event %q has negative time: ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
		}
	}
	for _, want := range []string{"job " + st.ID, "queued", "build", StateDone} {
		if !names[want] {
			t.Errorf("trace missing %q event; have %v", want, names)
		}
	}

	if resp, err := http.Get(ts.URL + "/jobs/nope/trace"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp.StatusCode)
	}
}

// traceEvent is the part of a Chrome trace event the tests read.
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
}

// decodeTrace parses a Chrome trace-event document.
func decodeTrace(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

// TestJobTracersBoundedAndFeedParent: each job records into its own child
// tracer. The daemon's tracer aggregates every job without holding a
// span, a retained job's trace carries its real build, and an evicted
// job's trace goes with the job.
func TestJobTracersBoundedAndFeedParent(t *testing.T) {
	tr := obs.New()
	_, ts := newTestServer(t, Config{Scale: 0.05, Workers: 1, Retention: 2, Tracer: tr})
	var ids []string
	for i := 0; i < 4; i++ {
		resp, st := postJob(t, ts, JobRequest{App: "Taobao", Config: "ltbo"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, st.Error)
		}
		if got := waitTerminal(t, ts, st.ID); got.State != StateDone {
			t.Fatalf("job %d state %s: %s", i, got.State, got.Error)
		}
		ids = append(ids, st.ID)
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, ev := range decodeTrace(t, buf.Bytes()) {
		if ev.Ph != "M" {
			t.Errorf("daemon trace holds a %q event %q", ev.Ph, ev.Name)
		}
	}

	compile := -1 // one job's compile tasks; the jobs are identical
	for _, id := range ids[2:] {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("trace of %s: status %d, %v", id, resp.StatusCode, err)
		}
		stages, n := 0, 0
		for _, ev := range decodeTrace(t, data) {
			switch ev.Cat {
			case "stage":
				stages++
			case "compile":
				n++
			}
		}
		if stages == 0 {
			t.Errorf("trace of %s has no stage spans", id)
		}
		if compile >= 0 && n != compile {
			t.Errorf("identical jobs traced %d and %d compile tasks", compile, n)
		}
		compile = n
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s trace: status %d, want 404", id, resp.StatusCode)
		}
	}
	if got := tr.Snapshot().Tasks["compile"].Count; compile <= 0 || got != 4*compile {
		t.Errorf("daemon counted %d compile tasks, want 4 x %d", got, compile)
	}
}

// TestDebloatJobStageSpan: a debloat job records its "debloat" stage span
// into its own trace and the daemon's stage totals, as re-outline jobs
// record theirs.
func TestDebloatJobStageSpan(t *testing.T) {
	_, oatData := linkedTaobao(t, core.CTOOnly())
	tr := obs.New()
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: tr})
	resp, st := postJob(t, ts, JobRequest{Kind: KindDebloat, Oat: oatData})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	if got := waitTerminal(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("job state %s: %s", got.State, got.Error)
	}
	tresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, %v", tresp.StatusCode, err)
	}
	var stages []string
	for _, ev := range decodeTrace(t, data) {
		if ev.Cat == "stage" {
			stages = append(stages, ev.Name)
		}
	}
	if len(stages) != 1 || stages[0] != "debloat" {
		t.Errorf("debloat job stage spans = %q, want [debloat]", stages)
	}
	if _, ok := tr.Snapshot().Stages["debloat"]; !ok {
		t.Errorf("daemon stage totals miss debloat: %v", tr.Snapshot().Stages)
	}
}

// TestDexJobLoadSpan: a build job records its ingest (parsing and
// verifying the dex payload) as a "load" stage span ahead of compile, in
// its own trace and the daemon's stage totals.
func TestDexJobLoadSpan(t *testing.T) {
	prof, _ := workload.AppByName("Taobao", 0.05)
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: tr})
	resp, st := postJob(t, ts, JobRequest{Dex: payload, Config: "cto"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	if got := waitTerminal(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("job state %s: %s", got.State, got.Error)
	}
	tresp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(tresp.Body)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, %v", tresp.StatusCode, err)
	}
	var stages []string
	for _, ev := range decodeTrace(t, data) {
		if ev.Cat == "stage" {
			stages = append(stages, ev.Name)
		}
	}
	if len(stages) < 2 || stages[0] != "load" || stages[1] != "compile" {
		t.Errorf("dex job stage spans = %q, want load then compile first", stages)
	}
	if _, ok := tr.Snapshot().Stages["load"]; !ok {
		t.Errorf("daemon stage totals miss load: %v", tr.Snapshot().Stages)
	}
}

// TestReoutlineJobReusesAnalysis: a reoutline job verifies its output
// against the input with the analysis admission attached to the input,
// and says so in its stats, the daemon's JSON metrics and the Prometheus
// exposition.
func TestReoutlineJobReusesAnalysis(t *testing.T) {
	_, oatData := linkedTaobao(t, core.CTOOnly())
	_, ts := newTestServer(t, Config{Workers: 1, Tracer: obs.New()})
	resp, st := postJob(t, ts, JobRequest{Kind: KindReoutline, Oat: oatData})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state %s: %s", final.State, final.Error)
	}
	if final.Stats.AnalysesReused != 1 {
		t.Errorf("stats.AnalysesReused = %d, want 1", final.Stats.AnalysesReused)
	}
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
	if m.Telemetry == nil || m.Telemetry.Counters["analysis.reused"] != 1 {
		t.Errorf("/metrics telemetry does not count the reuse: %+v", m.Telemetry)
	}
	presp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(presp.Body)
	presp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `calibro_events_total{name="analysis.reused"} 1`; !strings.Contains(string(prom), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

// TestPromExposition is the golden-shape test: after real traffic the
// exposition parses line by line, every family is declared exactly once,
// samples belong to declared families, and the serving counters carry
// the values /metrics reports as JSON.
func TestPromExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Scale:  0.05,
		Cache:  cache.New(),
		Tracer: obs.New(),
	})
	resp, st := postJob(t, ts, JobRequest{App: "Taobao", Config: "ltbo"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	waitTerminal(t, ts, st.ID)

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()

	types := map[string]string{} // family -> type
	for ln, line := range strings.Split(out, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			if _, dup := types[f[2]]; dup {
				t.Errorf("duplicate family %s", f[2])
			}
			types[f[2]] = f[3]
		default:
			// A sample: name{labels} value — the name must extend a
			// declared family and the value must parse.
			var v float64
			name, err := parsePromSample(line, &v)
			if err != nil {
				t.Fatalf("line %d: %v in %q", ln+1, err, line)
			}
			base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
				"_bucket"), "_sum"), "_count")
			if _, ok := types[name]; ok {
				continue
			}
			if _, ok := types[base]; !ok {
				t.Errorf("line %d: sample %q outside any declared family", ln+1, name)
			}
		}
	}

	// Cross-check against the JSON metrics: one job accepted and done.
	m := s.Metrics()
	for _, want := range []string{
		"calibrod_jobs_accepted_total 1\n",
		`calibrod_jobs_total{state="done"} 1` + "\n",
		"calibrod_queue_wait_seconds_count 1\n",
		"calibrod_job_duration_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if m.JobsDone != 1 || m.JobDuration.Count != 1 {
		t.Errorf("JSON metrics disagree: done=%d latency count=%d", m.JobsDone, m.JobDuration.Count)
	}
	if !strings.Contains(out, "calibro_stage_seconds_total{stage=") {
		t.Error("exposition missing tracer stage totals")
	}

	// The HTTP route serves the same document with the prom content type,
	// and rejects unknown formats.
	presp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type %q", ct)
	}
	bresp, err := http.Get(ts.URL + "/metrics?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", bresp.StatusCode)
	}
}

// parsePromSample splits one exposition sample line into name and value.
func parsePromSample(line string, v *float64) (string, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", errors.New("no value field")
	}
	f, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return "", err
	}
	*v = f
	name := line[:i]
	if j := strings.IndexByte(name, '{'); j >= 0 {
		name = name[:j]
	}
	return name, nil
}

// TestLoggingDeterminism: the same job with logging on and off produces
// byte-identical images — logging observes, it never steers.
func TestLoggingDeterminism(t *testing.T) {
	req := JobRequest{App: "Fanqie", Scale: 0.05, Config: "plopti", Trees: 4}

	var logged bytes.Buffer
	sOn, tsOn := newTestServer(t, Config{Scale: 0.05, Log: NewEventLogger(&logged)})
	resp, st := postJob(t, tsOn, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	if got := waitTerminal(t, tsOn, st.ID); got.State != StateDone {
		t.Fatalf("job state %s: %s", got.State, got.Error)
	}
	imgOn := fetchImage(t, tsOn, st.ID)

	_, tsOff := newTestServer(t, Config{Scale: 0.05})
	resp, st = postJob(t, tsOff, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, st.Error)
	}
	waitTerminal(t, tsOff, st.ID)
	imgOff := fetchImage(t, tsOff, st.ID)

	if !bytes.Equal(imgOn, imgOff) {
		t.Error("image with logging differs from image without")
	}

	// The worker logs job_finish after the job turns terminal, and the
	// HTTP handlers log http_access after answering, so stop both before
	// reading the buffer they write.
	tsOn.Close()
	if err := sOn.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The log itself is JSON lines with the expected lifecycle events.
	events := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logged.String()), "\n") {
		var ev struct {
			Event string `json:"event"`
			TS    string `json:"ts"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if _, err := time.Parse(time.RFC3339Nano, ev.TS); err != nil {
			t.Errorf("log ts %q does not parse: %v", ev.TS, err)
		}
		events[ev.Event] = true
	}
	for _, want := range []string{"job_accept", "job_start", "job_finish", "http_access"} {
		if !events[want] {
			t.Errorf("log missing %q event; have %v", want, events)
		}
	}
}

// TestRetention: terminal jobs age out FIFO beyond the window and their
// endpoints answer 404, while the newest stay pollable.
func TestRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{Scale: 0.05, Retention: 2, QueueDepth: 32})
	var ids []string
	for i := 0; i < 4; i++ {
		resp, st := postJob(t, ts, JobRequest{App: "Taobao", Config: "baseline"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, st.Error)
		}
		if got := waitTerminal(t, ts, st.ID); got.State != StateDone {
			t.Fatalf("job %d state %s: %s", i, got.State, got.Error)
		}
		ids = append(ids, st.ID)
	}
	for _, old := range ids[:2] {
		resp, err := http.Get(ts.URL + "/jobs/" + old)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s: status %d, want 404", old, resp.StatusCode)
		}
	}
	for _, kept := range ids[2:] {
		resp, err := http.Get(ts.URL + "/jobs/" + kept)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("retained job %s: status %d, want 200", kept, resp.StatusCode)
		}
	}
}

// TestMaxBody413: a submit body over the configured bound answers 413
// and counts as invalid, not as a crash or a 400.
func TestMaxBody413(t *testing.T) {
	s, ts := newTestServer(t, Config{Scale: 0.05, MaxBody: 1024})
	// The body must be well-formed JSON up to the limit, so the size
	// bound — not the syntax check — is what rejects it.
	body, err := json.Marshal(JobRequest{Dex: bytes.Repeat([]byte{0xA5}, 8192)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", resp.StatusCode)
	}
	if got := s.Metrics().JobsInvalid; got != 1 {
		t.Errorf("JobsInvalid = %d, want 1", got)
	}
}

// TestVersionedBuild: an update submit (version+delta) builds, differs
// from the previous version's image, and matches a direct build of the
// same updated profile — the determinism contract extends to delta mode.
func TestVersionedBuild(t *testing.T) {
	_, ts := newTestServer(t, Config{Scale: 0.05, Cache: cache.New()})
	imageOf := func(version int) []byte {
		t.Helper()
		resp, st := postJob(t, ts, JobRequest{
			App: "Taobao", Config: "ltbo", Version: version, Delta: 0.2,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("v%d submit: status %d: %s", version, resp.StatusCode, st.Error)
		}
		if got := waitTerminal(t, ts, st.ID); got.State != StateDone {
			t.Fatalf("v%d state %s: %s", version, got.State, got.Error)
		}
		return fetchImage(t, ts, st.ID)
	}
	v1, v2 := imageOf(1), imageOf(2)
	if bytes.Equal(v1, v2) {
		t.Error("version 1 and 2 images are identical; delta did nothing")
	}
	direct := directImage(t, JobRequest{
		App: "Taobao", Scale: 0.05, Config: "ltbo", Version: 2, Delta: 0.2,
	})
	if !bytes.Equal(v2, direct) {
		t.Error("daemon image differs from direct build of the updated profile")
	}
}

// TestVersionValidation: malformed update parameters bounce before
// taking a queue slot.
func TestVersionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Scale: 0.05})
	for _, req := range []JobRequest{
		{App: "Taobao", Delta: 1.5},
		{App: "Taobao", Version: -1},
		{Dex: []byte("method m0\n  return v0\n"), Version: 2},
	} {
		resp, _ := postJob(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("req %+v: status %d, want 400", req, resp.StatusCode)
		}
	}
}
