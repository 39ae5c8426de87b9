package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// traceEvent is one Chrome trace-event JSON object. The format is the
// trace-event "JSON Object Format" Perfetto and chrome://tracing load:
// complete spans are ph "X" with ts+dur, instants are ph "i", and ph "M"
// metadata events name the lanes. ts/dur are microseconds (fractional
// part carries the nanoseconds).
type traceEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat,omitempty"`
	Ph   string   `json:"ph"`
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	TS   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	S    string   `json:"s,omitempty"` // instant scope: "t" = thread
	Args any      `json:"args,omitempty"`
}

// traceFile is the top-level trace container.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func us(d int64) float64 { return float64(d) / 1e3 } // ns -> µs

// WriteTrace emits the span log as Chrome trace-event JSON: one ph "M"
// metadata event per lane (lane 0 "build", lanes 1..W "worker k"), then
// the spans sorted by start timestamp, each carrying pid/tid/ts/dur; a
// pool task's queue wait appears as its queue_us arg. A nil tracer writes
// a valid empty trace.
func (t *Tracer) WriteTrace(w io.Writer) error {
	spans := t.spans()
	maxLane := 0
	for _, s := range spans {
		maxLane = max(maxLane, s.Lane)
	}
	events := make([]traceEvent, 0, len(spans)+maxLane+1)
	for lane := 0; t != nil && lane <= maxLane; lane++ {
		name := "build"
		if lane > 0 {
			name = fmt.Sprintf("worker %d", lane)
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]string{"name": name},
		})
	}
	for _, s := range spans {
		ev := traceEvent{Name: s.Name, Cat: s.Cat, PID: 1, TID: s.Lane, TS: us(s.Start.Nanoseconds())}
		if s.Inst {
			ev.Ph = "i"
			ev.S = "t"
		} else {
			ev.Ph = "X"
			d := us(s.Dur.Nanoseconds())
			ev.Dur = &d
		}
		if s.Lane > 0 {
			ev.Args = map[string]int64{"queue_us": s.Queue.Microseconds()}
		} else if len(s.Args) > 0 {
			ev.Args = s.Args
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// TaskStats is a duration distribution over one task category (or its
// queue waits): count, total, and nearest-rank p50/p95/p99/max, all in
// microseconds. Percentiles are histogram-quantized (bucket upper
// bounds); count, total, and max are exact.
type TaskStats struct {
	Count   int   `json:"count"`
	TotalUS int64 `json:"total_us"`
	P50US   int64 `json:"p50_us"`
	P95US   int64 `json:"p95_us"`
	P99US   int64 `json:"p99_us"`
	MaxUS   int64 `json:"max_us"`
}

// LaneOccupancy is one worker lane's utilization: how many tasks it ran,
// its total busy time, and busy time as a fraction of the trace wall.
type LaneOccupancy struct {
	Lane   int     `json:"lane"`
	Tasks  int     `json:"tasks"`
	BusyUS int64   `json:"busy_us"`
	Busy   float64 `json:"busy"`
}

// Snapshot is the flat metrics reduction of a recording: what a build
// report or a regression tracker consumes without parsing the full trace.
type Snapshot struct {
	// WallUS is the trace wall clock: the latest span end.
	WallUS int64 `json:"wall_us"`
	// Stages maps lane-0 "stage" span names to their total duration.
	Stages map[string]int64 `json:"stage_us"`
	// Tasks aggregates worker-lane spans per category (e.g. "compile" is
	// the per-method compile distribution).
	Tasks map[string]TaskStats `json:"tasks"`
	// QueueWait aggregates the queue wait of worker-lane spans per
	// category: how long tasks sat waiting for a pool slot.
	QueueWait map[string]TaskStats `json:"queue_wait"`
	// Workers is per-lane occupancy, ascending by lane.
	Workers []LaneOccupancy `json:"workers"`
	// Counters are the tracer-level counters (outline.Stats counts etc.).
	Counters map[string]int64 `json:"counters"`
}

// Snapshot reads the aggregate folded at record time: its own records and
// those of every descendant Child. Its cost depends on the number of
// stages, task categories and lanes, not on how many spans were recorded.
// A nil tracer yields an empty (but usable) snapshot.
func (t *Tracer) Snapshot() *Snapshot {
	snap := &Snapshot{
		Stages:    map[string]int64{},
		Tasks:     map[string]TaskStats{},
		QueueWait: map[string]TaskStats{},
		Counters:  map[string]int64{},
	}
	if t == nil {
		return snap
	}
	run := map[string]*Histogram{}   // cat -> run µs
	queue := map[string]*Histogram{} // cat -> queue µs
	for i := range t.stripes {
		st := &t.stripes[i]
		st.mu.Lock()
		snap.WallUS = max(snap.WallUS, st.agg.wallUS)
		for name, v := range st.agg.stages {
			snap.Stages[name] += v
		}
		for cat, d := range st.agg.cats {
			mergeInto(run, cat, &d.run)
			mergeInto(queue, cat, &d.queue)
		}
		for _, lo := range st.agg.lanes {
			if lo.Tasks > 0 {
				snap.Workers = append(snap.Workers, lo)
			}
		}
		st.mu.Unlock()
	}
	for i := range t.counters {
		cs := &t.counters[i]
		cs.mu.Lock()
		for k, v := range cs.m {
			snap.Counters[k] = v
		}
		cs.mu.Unlock()
	}
	for cat, h := range run {
		snap.Tasks[cat] = h.Stats()
	}
	for cat, h := range queue {
		snap.QueueWait[cat] = h.Stats()
	}
	if snap.WallUS > 0 {
		for i := range snap.Workers {
			snap.Workers[i].Busy = float64(snap.Workers[i].BusyUS) / float64(snap.WallUS)
		}
	}
	slices.SortFunc(snap.Workers, func(a, b LaneOccupancy) int { return a.Lane - b.Lane })
	return snap
}

// mergeInto adds h to m[cat], creating the entry on first use.
func mergeInto(m map[string]*Histogram, cat string, h *Histogram) {
	acc := m[cat]
	if acc == nil {
		acc = &Histogram{}
		m[cat] = acc
	}
	acc.merge(h)
}

// WriteMetrics writes the Snapshot as indented JSON.
func (t *Tracer) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}
