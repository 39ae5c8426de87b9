// Job model: the request/status/stats wire types and the build execution
// one worker performs per job. The request mirrors cmd/calibro's knobs —
// an app profile name or a serialized dex payload, the evaluation-ladder
// configuration, and the tuning flags — so anything buildable one-shot is
// buildable as a service.

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/outline"
	"repro/internal/par"
	"repro/internal/workload"
)

// Job states. A job is terminal in done, failed, or canceled.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"   // build error or deadline expiry
	StateCanceled = "canceled" // client cancellation
)

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// JobRequest is the submit payload. For a build job (the default kind),
// exactly one of App (a benchmark profile name, generated server-side) or
// Dex (a serialized dex container or smali-like text, base64 in JSON)
// selects the input. For a debloat job, Oat carries the linked image to
// rewrite and Roots the reachability entry points. For a reoutline job,
// Oat carries the image to re-outline post hoc.
type JobRequest struct {
	// Kind selects the job: "build" (default) compiles an app, "debloat"
	// rewrites an existing image removing unreachable code, "reoutline"
	// re-outlines an existing image without its compile-time state.
	Kind string `json:"kind,omitempty"`

	App   string  `json:"app,omitempty"`   // profile name (Toutiao .. Wechat)
	Scale float64 `json:"scale,omitempty"` // profile scale; server default when 0
	Dex   []byte  `json:"dex,omitempty"`   // dex container bytes or assembly text

	// Version and Delta model app updates against a named profile:
	// version V regenerates Delta of the app's methods (deterministically
	// per version), leaving the rest byte-identical — so a warm cache hits
	// on the unchanged majority. Delta defaults to 0.10 when Version > 0.
	Version int     `json:"version,omitempty"`
	Delta   float64 `json:"delta,omitempty"`

	// Oat is the serialized OAT image a debloat job rewrites (base64 in
	// JSON). Roots lists the method IDs reachability starts from; empty
	// selects the conservative no-caller inference.
	Oat   []byte   `json:"oat,omitempty"`
	Roots []uint32 `json:"roots,omitempty"`

	Config string `json:"config,omitempty"` // baseline|cto|ltbo|plopti|hfopti (default plopti)
	Trees  int    `json:"trees,omitempty"`  // parallel suffix trees (default 8)
	Dedup  bool   `json:"dedup,omitempty"`  // merge identical outlined functions

	Workers int  `json:"workers,omitempty"` // per-build pool width; server default when 0
	Runs    int  `json:"runs,omitempty"`    // hfopti profiling script runs (default 20)
	Verify  bool `json:"verify,omitempty"`  // fail the build on lint findings
	Lint    bool `json:"lint,omitempty"`    // lint the image and attach findings

	// TimeoutMS is the job deadline in milliseconds, measured from
	// submission; 0 inherits the server maximum, larger values are
	// clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r JobRequest) withDefaults(scale float64) JobRequest {
	if r.Kind == "" {
		r.Kind = KindBuild
	}
	if r.Config == "" {
		r.Config = "plopti"
	}
	if r.Scale == 0 {
		r.Scale = scale
	}
	// Build jobs default to plopti's 8 parallel trees. Reoutline jobs
	// inherit the reoutline package default (single global tree — what
	// `calibro -reoutline` runs, so daemon and CLI outputs stay
	// byte-identical) unless the client asks for trees explicitly.
	if r.Trees == 0 && r.Kind != KindReoutline {
		r.Trees = 8
	}
	if r.Runs == 0 {
		r.Runs = 20
	}
	if r.Version > 0 && r.Delta == 0 {
		r.Delta = 0.10
	}
	return r
}

// Job kinds.
const (
	KindBuild     = "build"
	KindDebloat   = "debloat"
	KindReoutline = "reoutline"
)

// validate rejects a request before it takes a queue slot.
func (r JobRequest) validate() error {
	if r.Trees < 0 || r.Runs < 0 || r.Scale < 0 || r.Workers < 0 || r.TimeoutMS < 0 {
		return errors.New("trees, runs, scale, workers and timeout_ms must not be negative")
	}
	switch r.Kind {
	case KindBuild:
	case KindDebloat:
		switch {
		case len(r.Oat) == 0:
			return errors.New("debloat requires an oat image")
		case r.App != "" || len(r.Dex) > 0:
			return errors.New("debloat takes oat, not app or dex")
		}
		return nil
	case KindReoutline:
		switch {
		case len(r.Oat) == 0:
			return errors.New("reoutline requires an oat image")
		case r.App != "" || len(r.Dex) > 0:
			return errors.New("reoutline takes oat, not app or dex")
		case len(r.Roots) > 0:
			return errors.New("roots apply to debloat jobs only")
		}
		return nil
	default:
		return fmt.Errorf("unknown job kind %q", r.Kind)
	}
	if len(r.Oat) > 0 || len(r.Roots) > 0 {
		return errors.New("oat and roots apply to rewrite jobs only")
	}
	if _, err := core.Named(r.Config, r.Trees); err != nil {
		return err
	}
	switch {
	case r.App != "" && len(r.Dex) > 0:
		return errors.New("app and dex are mutually exclusive")
	case r.App == "" && len(r.Dex) == 0:
		return errors.New("one of app or dex is required")
	case r.App != "":
		if _, ok := workload.AppByName(r.App, r.Scale); !ok {
			return fmt.Errorf("unknown app %q", r.App)
		}
	}
	switch {
	case r.Version < 0:
		return errors.New("version must be >= 0")
	case r.Delta < 0 || r.Delta >= 1:
		return errors.New("delta must be in [0, 1)")
	case (r.Version > 0 || r.Delta > 0) && r.App == "":
		return errors.New("version and delta apply to app profiles only")
	}
	return nil
}

// JobStats is the Table-6-style per-job report: sizes, stage wall clocks,
// outlining effect, and what serving added on top (queue wait).
type JobStats struct {
	Kind       string `json:"kind,omitempty"`
	App        string `json:"app,omitempty"`
	Config     string `json:"config,omitempty"`
	Methods    int    `json:"methods"`
	TextBytes  int    `json:"text_bytes"`
	ImageBytes int    `json:"image_bytes"`
	Workers    int    `json:"workers"`

	// Debloat jobs report what the rewrite removed; build jobs leave
	// these zero.
	TextBytesBefore int  `json:"text_bytes_before,omitempty"`
	MethodsRemoved  int  `json:"methods_removed,omitempty"`
	OutlinedRemoved int  `json:"outlined_removed,omitempty"`
	ThunksRemoved   int  `json:"thunks_removed,omitempty"`
	Imprecise       bool `json:"imprecise,omitempty"`

	// Reoutline jobs report the lift census and what the second outlining
	// pass did to the outlined-function table; other kinds leave these
	// zero. TextBytesBefore is shared with debloat above.
	MethodsLifted    int `json:"methods_lifted,omitempty"`
	MethodsFrozen    int `json:"methods_frozen,omitempty"`
	OutlinedCreated  int `json:"outlined_created,omitempty"`
	OutlinedRetained int `json:"outlined_retained,omitempty"`
	OutlinedMerged   int `json:"outlined_merged,omitempty"`

	QueueWaitUS int64 `json:"queue_wait_us"`
	CompileUS   int64 `json:"compile_us"`
	OutlineUS   int64 `json:"outline_us"`
	LinkUS      int64 `json:"link_us"`
	VerifyUS    int64 `json:"verify_us"`
	WallUS      int64 `json:"wall_us"`
	// LoadUS is a build job's ingest ahead of CompileUS: generating the
	// app, or parsing and verifying the client's dex payload (the "load"
	// stage span).
	LoadUS int64 `json:"load_us"`

	OutlinedFunctions   int `json:"outlined_functions,omitempty"`
	OutlinedOccurrences int `json:"outlined_occurrences,omitempty"`
	NetWordsSaved       int `json:"net_words_saved,omitempty"`

	// LintFindings counts warnings and errors when the request asked for
	// lint; -1 means lint was not requested.
	LintFindings int `json:"lint_findings"`

	// AnalysesReused counts the passes that reused an image's carried
	// analysis instead of verifying it again (the analysis.reused
	// counter of the job's tracer): a reoutline job's re-verification
	// reuses what admission computed on its input.
	AnalysesReused int `json:"analyses_reused,omitempty"`
	// MethodsReused counts the methods whose verification result a pass
	// took from the analysis of the image it rewrote (the
	// analysis.methods_reused counter): a debloat job's output reuses its
	// input's for every kept method.
	MethodsReused int `json:"methods_reused,omitempty"`

	// FleetSource records how the fleet layer satisfied the job:
	// "artifact" (fetched another daemon's finished build from the remote
	// store), "coalesced" (long-polled a concurrent winner's artifact),
	// or empty for a job this daemon built itself. Timing fields of a
	// fleet-served job are zero except QueueWaitUS — the work happened
	// elsewhere.
	FleetSource string `json:"fleet_source,omitempty"`
}

// JobStatus is the poll response.
type JobStatus struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Error       string    `json:"error,omitempty"`
	QueueWaitUS int64     `json:"queue_wait_us,omitempty"`
	Stats       *JobStats `json:"stats,omitempty"` // terminal done only
}

// FindingJSON is one lint finding on the wire, with the severity rendered
// as its stable name and the full human-readable line alongside the
// structured fields.
type FindingJSON struct {
	Severity string `json:"severity"`
	Method   int    `json:"method"`
	Off      int    `json:"off"`
	Rule     string `json:"rule"`
	Msg      string `json:"msg"`
	Text     string `json:"text"`
}

// job is the server-side record of one submission.
type job struct {
	id  string
	seq int64 // numeric ID, the trace correlation key
	req JobRequest

	// tr is the job's own tracer (a Child of the server's), recording its
	// lifecycle and build; it lives and dies with the job record. life
	// spans the whole job and phase the current one of "queued" and
	// "build"; both are touched only under mu.
	tr    *obs.Tracer
	life  *obs.Span
	phase *obs.Span

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     string
	errMsg    string
	submitted time.Time
	queueWait time.Duration
	image     []byte
	stats     *JobStats
	lint      []analysis.Finding
	doneCh    chan struct{} // closed on terminal transition
}

// status snapshots the job for the poll endpoint.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:          j.id,
		State:       j.state,
		Error:       j.errMsg,
		QueueWaitUS: j.queueWait.Microseconds(),
	}
	if j.state == StateDone {
		st.Stats = j.stats
	}
	return st
}

// buildOutput is what a successful build hands the job record.
type buildOutput struct {
	image []byte
	stats *JobStats
	lint  []analysis.Finding
}

// loadApp materializes a build job's input: a generated benchmark
// profile, or the client's dex payload (workload.Load).
func loadApp(req JobRequest) (*dex.App, *workload.Manifest, error) {
	if req.App == "" {
		return workload.Load(req.Dex)
	}
	prof, ok := workload.AppByName(req.App, req.Scale)
	if !ok {
		return nil, nil, fmt.Errorf("unknown app %q", req.App)
	}
	if req.Version > 0 || req.Delta > 0 {
		prof = workload.Update(prof, req.Version, req.Delta)
	}
	return workload.Generate(prof)
}

// buildLocal runs one job under its context on this daemon's own
// workers, recording into the job's tracer tr. Every job shares the
// server's cache; everything else is per-job. The fleet layer (fleet.go)
// wraps this with the artifact fetch and cross-daemon single-flight.
//
// Each kind produces its image and kind-specific stats; the tail shared by
// all of them serializes the image, lints it on request, and fills in the
// stats every kind reports.
func (s *Server) buildLocal(ctx context.Context, req JobRequest, queueWait time.Duration, tr *obs.Tracer) (*buildOutput, error) {
	if req.Workers == 0 {
		req.Workers = s.cfg.BuildWorkers
	}
	var img *oat.Image
	var stats *JobStats
	var err error
	switch req.Kind {
	case KindDebloat:
		img, stats, err = debloat(ctx, req, tr)
	case KindReoutline:
		img, stats, err = reoutline(ctx, req, tr)
	default:
		img, stats, err = s.compile(ctx, req, tr)
	}
	if err != nil {
		return nil, err
	}
	data, err := img.Marshal()
	if err != nil {
		return nil, err
	}
	stats.Kind = req.Kind
	stats.ImageBytes = len(data)
	stats.Workers = par.Workers(req.Workers)
	stats.QueueWaitUS = queueWait.Microseconds()
	stats.LintFindings = -1
	out := &buildOutput{image: data, stats: stats}
	if req.Lint {
		if out.lint, err = analysis.LintCtx(ctx, img, req.Workers, tr); err != nil {
			return nil, err
		}
		stats.LintFindings = len(out.lint)
	}
	counters := tr.Snapshot().Counters
	stats.AnalysesReused = int(counters["analysis.reused"])
	stats.MethodsReused = int(counters["analysis.methods_reused"])
	return out, nil
}

// compile runs a build-kind job: load or generate the app and build it
// under the requested ladder configuration, through the server's cache.
func (s *Server) compile(ctx context.Context, req JobRequest, tr *obs.Tracer) (*oat.Image, *JobStats, error) {
	start := time.Now()
	sp := tr.Start("stage", "load")
	app, man, err := loadApp(req)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	load := time.Since(start)
	cfg, err := core.Named(req.Config, req.Trees)
	if err != nil {
		return nil, nil, err
	}
	cfg.DedupFunctions = req.Dedup
	cfg.VerifyImage = req.Verify
	cfg.Workers = req.Workers
	cfg.Cache = s.cfg.Cache
	cfg.Tracer = tr

	var res *core.Result
	if cfg.HotFilter {
		res, _, err = core.ProfileGuidedBuildCtx(ctx, app, cfg, workload.Script(man, req.Runs, 1))
	} else {
		res, err = core.BuildCtx(ctx, app, cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	stats := &JobStats{
		App:       app.Name,
		Config:    req.Config,
		Methods:   app.NumMethods(),
		TextBytes: res.TextBytes(),
		LoadUS:    load.Microseconds(),
		CompileUS: res.CompileTime.Microseconds(),
		OutlineUS: res.OutlineTime.Microseconds(),
		LinkUS:    res.LinkTime.Microseconds(),
		VerifyUS:  res.VerifyTime.Microseconds(),
		WallUS:    res.WallTime.Microseconds(),
	}
	stats.setOutline(res.Outline)
	return res.Image, stats, nil
}

// setOutline copies the outliner's effect into the stats; nil (outlining
// off) leaves them zero.
func (st *JobStats) setOutline(o *outline.Stats) {
	if o != nil {
		st.OutlinedFunctions = o.OutlinedFunctions
		st.OutlinedOccurrences = o.OutlinedOccurrences
		st.NetWordsSaved = o.NetWordsSaved()
	}
}

// debloat runs a debloat-kind job: parse the client's image and remove
// everything unreachable from the requested roots (no roots selects the
// no-caller inference). The pass itself re-verifies the output with the
// full lint before returning it.
func debloat(ctx context.Context, req JobRequest, tr *obs.Tracer) (*oat.Image, *JobStats, error) {
	img, err := oat.Unmarshal(req.Oat)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing oat image: %w", err)
	}
	cfg := core.DebloatConfig{Workers: req.Workers, Tracer: tr}
	for _, id := range req.Roots {
		cfg.Roots = append(cfg.Roots, dex.MethodID(id))
	}
	start := time.Now()
	res, ds, err := core.DebloatImageCtx(ctx, img, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, &JobStats{
		Methods:         ds.MethodsTotal,
		TextBytes:       ds.TextAfter,
		TextBytesBefore: ds.TextBefore,
		MethodsRemoved:  ds.MethodsRemoved,
		OutlinedRemoved: ds.BlobsRemoved,
		ThunksRemoved:   ds.ThunksRemoved,
		Imprecise:       ds.Imprecise,
		WallUS:          time.Since(start).Microseconds(),
	}, nil
}

// reoutline runs a reoutline-kind job: parse the client's image, lift it
// back into rewritable form, and re-run outlining over it. The pass
// re-verifies its own output (validation plus the paired equivalence
// rules) before returning it.
func reoutline(ctx context.Context, req JobRequest, tr *obs.Tracer) (*oat.Image, *JobStats, error) {
	img, err := oat.Unmarshal(req.Oat)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing oat image: %w", err)
	}
	start := time.Now()
	res, rs, err := core.ReoutlineImageCtx(ctx, img, core.ReoutlineConfig{
		ParallelTrees:  req.Trees,
		DedupFunctions: req.Dedup,
		Workers:        req.Workers,
		Tracer:         tr,
	})
	if err != nil {
		return nil, nil, err
	}
	stats := &JobStats{
		Methods:          rs.MethodsTotal,
		TextBytes:        rs.TextAfter,
		TextBytesBefore:  rs.TextBefore,
		MethodsLifted:    rs.MethodsLifted,
		MethodsFrozen:    rs.MethodsFrozen,
		OutlinedCreated:  rs.BlobsCreated,
		OutlinedRetained: rs.BlobsRetained,
		OutlinedMerged:   rs.BlobsDeduped,
		OutlineUS:        rs.DetectTime.Microseconds(),
		LinkUS:           rs.RelinkTime.Microseconds(),
		VerifyUS:         rs.VerifyTime.Microseconds(),
		WallUS:           time.Since(start).Microseconds(),
	}
	stats.setOutline(rs.Outline)
	return res, stats, nil
}
