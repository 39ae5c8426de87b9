package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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

// WriteTraceRecords renders an arbitrary span log as Chrome trace-event
// JSON: one ph "M" metadata event per named lane, then the spans sorted
// by start timestamp. It is the shared backend of Tracer.WriteTrace and
// of callers that synthesize their own small span sets (the serving
// layer's per-job traces). The spans slice is sorted in place.
func WriteTraceRecords(w io.Writer, spans []SpanRecord, laneNames map[int]string) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	lanes := make([]int, 0, len(laneNames))
	for lane := range laneNames {
		lanes = append(lanes, lane)
	}
	sort.Ints(lanes)

	events := make([]traceEvent, 0, len(spans)+len(lanes))
	for _, lane := range lanes {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]string{"name": laneNames[lane]},
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
		if len(s.Args) > 0 {
			ev.Args = s.Args
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteTrace emits the recording as Chrome trace-event JSON. Lane 0 is
// named "build", lanes 1..W "worker k", and negative (service) lanes
// "serve"; span events are sorted by start timestamp (metadata first),
// every span carries pid/tid/ts/dur. A nil tracer writes a valid empty
// trace.
func (t *Tracer) WriteTrace(w io.Writer) error {
	spans, _, maxLane := t.snapshotState()
	laneNames := map[int]string{}
	if t != nil {
		for lane := 0; lane <= maxLane; lane++ {
			name := "build"
			if lane > 0 {
				name = fmt.Sprintf("worker %d", lane)
			}
			laneNames[lane] = name
		}
		for _, s := range spans {
			if s.Lane < 0 {
				laneNames[s.Lane] = "serve"
			}
		}
	}
	return WriteTraceRecords(w, spans, laneNames)
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
	// QueueWait aggregates the queue_us arg of worker-lane spans per
	// category: how long tasks sat waiting for a pool slot.
	QueueWait map[string]TaskStats `json:"queue_wait"`
	// Workers is per-lane occupancy, ascending by lane.
	Workers []LaneOccupancy `json:"workers"`
	// Counters are the tracer-level counters (outline.Stats counts etc.).
	Counters map[string]int64 `json:"counters"`
}

// Snapshot reduces the recording to flat metrics. Spans on negative
// (service) lanes are serving-layer annotations, not pool work, and are
// excluded. A nil tracer yields an empty (but usable) snapshot.
func (t *Tracer) Snapshot() *Snapshot {
	spans, counters, _ := t.snapshotState()
	snap := &Snapshot{
		Stages:    map[string]int64{},
		Tasks:     map[string]TaskStats{},
		QueueWait: map[string]TaskStats{},
		Counters:  counters,
	}
	if snap.Counters == nil {
		snap.Counters = map[string]int64{}
	}

	taskDist := map[string]*Histogram{}  // cat -> run µs
	queueDist := map[string]*Histogram{} // cat -> queue µs
	laneBusy := map[int]*LaneOccupancy{}
	for _, s := range spans {
		if s.Lane < 0 {
			continue
		}
		if end := (s.Start + s.Dur).Microseconds(); end > snap.WallUS {
			snap.WallUS = end
		}
		if s.Inst {
			continue
		}
		if s.Lane == 0 {
			if s.Cat == "stage" {
				snap.Stages[s.Name] += s.Dur.Microseconds()
			}
			continue
		}
		hd := taskDist[s.Cat]
		if hd == nil {
			hd = &Histogram{}
			taskDist[s.Cat] = hd
		}
		hd.Observe(s.Dur.Microseconds())
		if q, ok := s.Args["queue_us"]; ok {
			qd := queueDist[s.Cat]
			if qd == nil {
				qd = &Histogram{}
				queueDist[s.Cat] = qd
			}
			qd.Observe(q)
		}
		lo := laneBusy[s.Lane]
		if lo == nil {
			lo = &LaneOccupancy{Lane: s.Lane}
			laneBusy[s.Lane] = lo
		}
		lo.Tasks++
		lo.BusyUS += s.Dur.Microseconds()
	}
	for cat, h := range taskDist {
		snap.Tasks[cat] = h.Stats()
	}
	for cat, h := range queueDist {
		snap.QueueWait[cat] = h.Stats()
	}
	for _, lo := range laneBusy {
		if snap.WallUS > 0 {
			lo.Busy = float64(lo.BusyUS) / float64(snap.WallUS)
		}
		snap.Workers = append(snap.Workers, *lo)
	}
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].Lane < snap.Workers[j].Lane })
	return snap
}

// WriteMetrics writes the Snapshot as indented JSON.
func (t *Tracer) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Snapshot())
}
