// Package obs is the build telemetry substrate: a zero-dependency (stdlib
// only) tracing and metrics recorder threaded through every pipeline stage.
// The paper's whole evaluation is observability — Table 6 build-time
// growth, Figure 4 pattern counts, Figure 6 simpleperf profiles — and the
// parallel build work needs the same visibility *inside* the build: which
// stage dominates, how per-method compile cost is distributed, how long
// tasks queue behind a saturated worker pool.
//
// The model is deliberately small:
//
//   - A Tracer records spans — named intervals with monotonic timestamps —
//     on integer lanes. Lane 0 is the serial build orchestration (the
//     "build" span and its per-stage children, which nest by containment);
//     lanes 1..W are worker-pool lanes, one per pool goroutine, so a
//     Chrome-trace viewer shows pool occupancy directly.
//   - Counters live on the tracer (monotonic sums, e.g. the outline.Stats
//     counts) and on spans (per-span args, e.g. a task's queue wait).
//     Putting per-task counters on the span that did the work keeps the
//     attribution exact even when thousands of tasks interleave.
//   - A nil *Tracer is the no-op tracer: every method is nil-safe, so the
//     hot path pays one predictable nil check and nothing else, and no
//     call site needs an "is tracing on" branch of its own.
//
// Determinism contract: a Tracer observes, it never steers. Recording
// happens strictly after the traced work completes (or around it, for
// explicit spans), touches only the tracer's own state under its mutex,
// and feeds nothing back into scheduling or output. Building with a live
// tracer vs a nil one therefore yields byte-identical images at any
// worker count — the property TestBuildDeterministicWithTracing pins.
//
// Two exporters turn a recording into artifacts: WriteTrace emits Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing), and
// Snapshot/WriteMetrics reduce the spans to a flat metrics snapshot
// (per-stage totals, per-task-category p50/p95/max, queue waits, worker
// occupancy, counters).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LaneServe is the conventional lane for serving-layer annotation spans
// (job lifecycle intervals recorded by calibrod). Negative lanes are
// "service lanes": WriteTrace names them "serve", and Snapshot excludes
// them from task distributions and worker occupancy — they describe what
// the daemon did *around* builds, not pool work.
const LaneServe = -1

// SpanRecord is one completed span (or instant event) as recorded.
type SpanRecord struct {
	Name  string
	Cat   string // category: "stage", "compile", "outline.group", ...
	Lane  int    // 0 = build orchestration, 1..W = pool workers
	Start time.Duration
	Dur   time.Duration
	Args  map[string]int64
	Inst  bool // instant event: a point in time carrying Args, Dur unused
}

// nStripes splits the tracer's span and counter state. Spans stripe by
// lane (worker-pool lanes are the contended writers; each worker lands on
// a stable stripe), counters by name hash. 16 stripes cover the pool
// widths the build runs at.
const nStripes = 16

// spanStripe is one lane-sharded slice of the span log.
type spanStripe struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// counterStripe is one name-sharded slice of the counter map.
type counterStripe struct {
	mu sync.Mutex
	m  map[string]int64
}

// Tracer records spans and counters. The zero value is not usable; call
// New. A nil *Tracer is the no-op tracer: every method (and the pool
// observer it vends) is safe to call and does nothing.
//
// Recording is striped: every pool worker appends to its own lane's span
// stripe and counter updates hash to independent stripes, so a tracer on
// a saturated pool never funnels all workers through one mutex. Snapshots
// merge the stripes and order spans by start time, which the exporters
// sort by anyway — the merged view is identical to what a single-lock log
// would have held, modulo the order of concurrent records, which was
// scheduling-dependent already.
type Tracer struct {
	t0 time.Time

	stripes  [nStripes]spanStripe
	counters [nStripes]counterStripe
	maxLane  atomic.Int64
}

// New returns a live tracer; its clock starts now.
func New() *Tracer {
	t := &Tracer{t0: time.Now()}
	for i := range t.counters {
		t.counters[i].m = map[string]int64{}
	}
	return t
}

// Noop returns the no-op tracer (nil). It exists to make call sites that
// deliberately disable tracing read as a decision, not an omission.
func Noop() *Tracer { return nil }

// Span is an in-flight interval started by Start/StartLane. End records
// it. A nil *Span (from a nil tracer) ignores every call.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	lane  int
	start time.Duration
	args  map[string]int64
}

// Start opens a span on lane 0, the serial orchestration lane. Spans on
// one lane must nest by containment (Chrome-trace semantics); the build →
// stage hierarchy satisfies this naturally because stages run one at a
// time inside the build span.
func (t *Tracer) Start(cat, name string) *Span { return t.StartLane(cat, name, 0) }

// StartLane opens a span on an explicit lane.
func (t *Tracer) StartLane(cat, name string, lane int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, lane: lane, start: time.Since(t.t0)}
}

// Arg attaches a counter to the span (visible as Chrome-trace args and
// aggregated by Snapshot where meaningful). Returns s for chaining.
func (s *Span) Arg(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = map[string]int64{}
	}
	s.args[key] = v
	return s
}

// End records the span. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Since(s.t.t0)
	s.t.record(SpanRecord{Name: s.name, Cat: s.cat, Lane: s.lane,
		Start: s.start, Dur: end - s.start, Args: s.args})
}

// Count adds delta to a named tracer-level counter.
func (t *Tracer) Count(name string, delta int64) {
	if t == nil {
		return
	}
	cs := &t.counters[hashName(name)%nStripes]
	cs.mu.Lock()
	cs.m[name] += delta
	cs.mu.Unlock()
}

// hashName is FNV-1a over the counter name: cheap, allocation-free, and
// good enough to spread a handful of hot counter names across stripes.
func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// SpanAt records a completed span post-hoc from wall-clock endpoints —
// the vehicle for callers (the serving layer) that learn a span's bounds
// from their own timestamps rather than bracketing the work with
// Start/End. Endpoints before the tracer's epoch clamp to it; an end
// before its start records a zero-duration span.
func (t *Tracer) SpanAt(cat, name string, lane int, start, end time.Time, args map[string]int64) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0)
	if s < 0 {
		s = 0
	}
	d := end.Sub(start)
	if d < 0 {
		d = 0
	}
	t.record(SpanRecord{Name: name, Cat: cat, Lane: lane, Start: s, Dur: d, Args: args})
}

// Instant records a point event carrying args — the vehicle for per-group
// counter bundles (e.g. one outline tree's candidate/occurrence counts)
// that have no natural interval of their own.
func (t *Tracer) Instant(cat, name string, args map[string]int64) {
	if t == nil {
		return
	}
	t.record(SpanRecord{Name: name, Cat: cat, Start: time.Since(t.t0), Args: args, Inst: true})
}

// Task records a completed pool task post-hoc: the span ends now, started
// run ago, on the worker's lane, with its queue wait attached as an arg.
// This is the primitive the pool observer uses — recording after the fact
// keeps the observed work itself untouched.
func (t *Tracer) Task(cat, name string, worker int, queueWait, run time.Duration) {
	if t == nil {
		return
	}
	end := time.Since(t.t0)
	start := end - run
	if start < 0 {
		start = 0
	}
	t.record(SpanRecord{Name: name, Cat: cat, Lane: worker + 1, Start: start, Dur: run,
		Args: map[string]int64{"queue_us": queueWait.Microseconds()}})
}

// PoolObserver vends the callback internal/par's MapObsCtx/EachObsCtx accept:
// one call per completed task with the worker index, the task's queue
// wait, and its run time. name labels task i (nil uses the category).
// Returns nil — observe nothing — on the no-op tracer, so callers can
// pass the result straight through without a branch. The callback is safe
// for concurrent use from pool goroutines.
func (t *Tracer) PoolObserver(cat string, name func(i int) string) func(worker, index int, queueWait, run time.Duration) {
	if t == nil {
		return nil
	}
	return func(worker, index int, queueWait, run time.Duration) {
		n := cat
		if name != nil {
			n = name(index)
		}
		t.Task(cat, n, worker, queueWait, run)
	}
}

func (t *Tracer) record(r SpanRecord) {
	st := &t.stripes[uint(r.Lane)%nStripes]
	st.mu.Lock()
	st.spans = append(st.spans, r)
	st.mu.Unlock()
	for {
		cur := t.maxLane.Load()
		if int64(r.Lane) <= cur || t.maxLane.CompareAndSwap(cur, int64(r.Lane)) {
			return
		}
	}
}

// snapshotState merges the stripes into one consistent copy for export
// without holding any lock during encoding. Spans come back ordered by
// start time (stable across equal starts), so exporters see one log, not
// sixteen.
func (t *Tracer) snapshotState() (spans []SpanRecord, counters map[string]int64, maxLane int) {
	if t == nil {
		return nil, nil, 0
	}
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		spans = append(spans, st.spans...)
		st.mu.Unlock()
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	counters = map[string]int64{}
	for i := range t.counters {
		cs := &t.counters[i]
		cs.mu.Lock()
		for k, v := range cs.m {
			counters[k] = v
		}
		cs.mu.Unlock()
	}
	return spans, counters, int(t.maxLane.Load())
}
