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
// explicit spans), touches only tracer state (its own and its
// ancestors') under their mutexes, and feeds nothing back into scheduling or output. Building with a live
// tracer vs a nil one therefore yields byte-identical images at any
// worker count — the property TestBuildDeterministicWithTracing pins.
//
// Every record is folded, under the lock that appends it, into a bounded
// aggregate: per-stage totals, per-task-category run and queue-wait
// histograms, per-lane occupancy, the wall clock, and the counters.
// Snapshot/WriteMetrics read that aggregate, so a metrics scrape costs
// the same after a million records as after ten; the span log exists only
// for WriteTrace, which emits Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing).
//
// Child gives a unit of work (one calibrod job) its own span log, freed
// with the child, while its records and counters still fold into every
// ancestor's aggregate as they are recorded — a long-lived parent's
// memory stays bounded however many children come and go.
package obs

import (
	"sort"
	"sync"
	"time"
)

// spanRecord is one completed span (or instant event) as recorded.
type spanRecord struct {
	Name  string
	Cat   string // category: "stage", "compile", "outline.group", ...
	Lane  int    // 0 = build orchestration, 1..W = pool workers
	Start time.Duration
	Dur   time.Duration
	Queue time.Duration // pool tasks (Lane > 0): time spent waiting for a worker
	Args  map[string]int64
	Inst  bool // instant event: a point in time carrying Args, Dur unused
}

// nStripes splits the tracer's span and counter state. Spans stripe by
// lane (worker-pool lanes are the contended writers; each worker lands on
// a stable stripe), counters by name hash. 16 stripes cover the pool
// widths the build runs at.
const nStripes = 16

// spanStripe is one lane-sharded slice of the span log and of the
// aggregate folded from it.
type spanStripe struct {
	mu    sync.Mutex
	spans []spanRecord
	agg   aggregate
}

// aggregate is the bounded reduction Snapshot reports: its size depends
// on the number of stages, task categories and lanes, never on how many
// records were folded into it.
type aggregate struct {
	wallUS int64            // latest record end
	stages map[string]int64 // lane-0 "stage" span totals, µs
	cats   map[string]*catDist
	lanes  []LaneOccupancy // pool lanes of this stripe, indexed by lane / nStripes
}

// catDist is one task category's run-time and queue-wait distributions.
type catDist struct{ run, queue Histogram }

// fold adds one record to the aggregate. The caller holds the stripe lock.
func (a *aggregate) fold(r *spanRecord) {
	if end := (r.Start + r.Dur).Microseconds(); end > a.wallUS {
		a.wallUS = end
	}
	switch {
	case r.Inst:
	case r.Lane == 0:
		if r.Cat == "stage" {
			if a.stages == nil {
				a.stages = map[string]int64{}
			}
			a.stages[r.Name] += r.Dur.Microseconds()
		}
	default:
		d := a.cats[r.Cat]
		if d == nil {
			if a.cats == nil {
				a.cats = map[string]*catDist{}
			}
			d = &catDist{}
			a.cats[r.Cat] = d
		}
		d.run.Observe(r.Dur.Microseconds())
		d.queue.Observe(r.Queue.Microseconds())
		i := r.Lane / nStripes
		for len(a.lanes) <= i {
			a.lanes = append(a.lanes, LaneOccupancy{})
		}
		lo := &a.lanes[i]
		lo.Lane = r.Lane
		lo.Tasks++
		lo.BusyUS += r.Dur.Microseconds()
	}
}

// counterStripe is one name-sharded slice of the counter map.
type counterStripe struct {
	mu sync.Mutex
	m  map[string]int64
}

// Tracer records spans and counters. The zero value is not usable; call
// New or Child. A nil *Tracer is the no-op tracer: every method (and the
// pool observer it vends) is safe to call and does nothing.
//
// Recording is striped: every pool worker appends to its own lane's span
// stripe and counter updates hash to independent stripes, so a tracer on
// a saturated pool never funnels all workers through one mutex. WriteTrace
// merges the stripes and orders spans by start time — the merged view is
// identical to what a single-lock log would have held, modulo the order
// of concurrent records, which was scheduling-dependent already.
type Tracer struct {
	t0     time.Time
	parent *Tracer // receives every record and count into its aggregate

	stripes  [nStripes]spanStripe
	counters [nStripes]counterStripe
}

// New returns a live tracer; its clock starts now.
func New() *Tracer { return &Tracer{t0: time.Now()} }

// Child returns a tracer with its own span log on t's clock. Every record
// and count on the child also folds into t's aggregate (and so into t's
// Snapshot) as it happens, but never into t's span log: dropping the
// child frees its spans. Child of the no-op tracer is the no-op tracer.
func (t *Tracer) Child() *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{t0: t.t0, parent: t}
}

// Span is an in-flight interval started by Start. End records it. A nil
// *Span (from a nil tracer) ignores every call.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	start time.Duration
	args  map[string]int64
}

// Start opens a span on lane 0, the serial orchestration lane. Spans on
// one lane must nest by containment (Chrome-trace semantics); the build →
// stage hierarchy satisfies this naturally because stages run one at a
// time inside the build span.
func (t *Tracer) Start(cat, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, cat: cat, start: time.Since(t.t0)}
}

// Arg attaches a counter to the span (visible as Chrome-trace args).
// Returns s for chaining.
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
	s.t.record(spanRecord{Name: s.name, Cat: s.cat, Start: s.start, Dur: end - s.start, Args: s.args})
}

// Count adds delta to a named tracer-level counter, here and in every
// ancestor.
func (t *Tracer) Count(name string, delta int64) {
	h := hashName(name) % nStripes
	for ; t != nil; t = t.parent {
		cs := &t.counters[h]
		cs.mu.Lock()
		if cs.m == nil {
			cs.m = map[string]int64{}
		}
		cs.m[name] += delta
		cs.mu.Unlock()
	}
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

// Instant records a point event carrying args — the vehicle for per-group
// counter bundles (e.g. one outline tree's candidate/occurrence counts)
// that have no natural interval of their own.
func (t *Tracer) Instant(cat, name string, args map[string]int64) {
	if t == nil {
		return
	}
	t.record(spanRecord{Name: name, Cat: cat, Start: time.Since(t.t0), Args: args, Inst: true})
}

// task records a completed pool task post-hoc: the span ends now, started
// run ago, on the worker's lane, with its queue wait attached. Recording
// after the fact keeps the observed work itself untouched.
func (t *Tracer) task(cat, name string, worker int, queueWait, run time.Duration) {
	end := time.Since(t.t0)
	start := end - run
	if start < 0 {
		start = 0
	}
	t.record(spanRecord{Name: name, Cat: cat, Lane: worker + 1, Start: start, Dur: run, Queue: queueWait})
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
		t.task(cat, n, worker, queueWait, run)
	}
}

// record appends r to t's span log and folds it into the aggregate of t
// and of every ancestor, each under its own stripe lock.
func (t *Tracer) record(r spanRecord) {
	i := uint(r.Lane) % nStripes
	st := &t.stripes[i]
	st.mu.Lock()
	st.spans = append(st.spans, r)
	st.agg.fold(&r)
	st.mu.Unlock()
	for p := t.parent; p != nil; p = p.parent {
		ps := &p.stripes[i]
		ps.mu.Lock()
		ps.agg.fold(&r)
		ps.mu.Unlock()
	}
}

// spans merges the stripes' span logs into one copy for export, ordered
// by start time (stable across equal starts), so exporters see one log,
// not sixteen.
func (t *Tracer) spans() []spanRecord {
	if t == nil {
		return nil
	}
	var spans []spanRecord
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		spans = append(spans, st.spans...)
		st.mu.Unlock()
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	return spans
}
