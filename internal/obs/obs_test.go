package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsNoop pins the no-op contract: every method of a nil
// tracer (and of the nil span / nil observer it vends) is callable and
// records nothing, and the exporters still produce valid output.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("stage", "compile")
	sp.Arg("k", 1)
	sp.End()
	tr.Count("c", 5)
	tr.Instant("cat", "ev", map[string]int64{"a": 1})
	if obs := tr.PoolObserver("cat", nil); obs != nil {
		t.Error("PoolObserver on nil tracer should be nil")
	}
	if tr.Child() != nil {
		t.Error("Child of the nil tracer should be nil")
	}

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace on nil tracer: %v", err)
	}
	var tf struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("nil trace is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 0 {
		t.Errorf("nil trace has %d events", len(tf.TraceEvents))
	}
	snap := tr.Snapshot()
	if snap.WallUS != 0 || len(snap.Stages) != 0 || len(snap.Tasks) != 0 {
		t.Errorf("nil snapshot not empty: %+v", snap)
	}
}

// TestSpanAndCounterRecording drives the live tracer end to end.
func TestSpanAndCounterRecording(t *testing.T) {
	tr := New()
	sp := tr.Start("stage", "compile").Arg("methods", 42)
	time.Sleep(time.Millisecond)
	sp.End()
	tr.Count("widgets", 3)
	tr.Count("widgets", 4)
	tr.task("compile", "m1", 2, 5*time.Microsecond, time.Millisecond)
	tr.Instant("outline", "group 0", map[string]int64{"functions": 7})

	spans, counters := tr.spans(), tr.Snapshot().Counters
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	if spans[0].Name != "compile" || spans[0].Cat != "stage" || spans[0].Lane != 0 {
		t.Errorf("stage span: %+v", spans[0])
	}
	if spans[0].Dur < time.Millisecond {
		t.Errorf("stage span dur %v < 1ms", spans[0].Dur)
	}
	if spans[0].Args["methods"] != 42 {
		t.Errorf("stage span args: %v", spans[0].Args)
	}
	if spans[1].Lane != 3 { // worker 2 -> lane 3
		t.Errorf("task lane = %d, want 3", spans[1].Lane)
	}
	if spans[1].Queue != 5*time.Microsecond {
		t.Errorf("task queue wait = %v, want 5µs", spans[1].Queue)
	}
	if !spans[2].Inst {
		t.Error("instant event not marked")
	}
	if counters["widgets"] != 7 {
		t.Errorf("counter = %d, want 7", counters["widgets"])
	}
}

// fixedTracer builds a tracer with hand-authored records, fed through the
// record path, so exporter output is fully deterministic.
func fixedTracer() *Tracer {
	tr := New()
	for _, r := range []spanRecord{
		// Deliberately out of start order: the exporter must sort.
		{Name: "m0", Cat: "compile", Lane: 1, Start: 10 * time.Microsecond, Dur: 30 * time.Microsecond,
			Queue: 2 * time.Microsecond},
		{Name: "build", Cat: "build", Lane: 0, Start: 0, Dur: 100 * time.Microsecond},
		{Name: "compile", Cat: "stage", Lane: 0, Start: 5 * time.Microsecond, Dur: 55 * time.Microsecond},
		{Name: "m1", Cat: "compile", Lane: 2, Start: 12 * time.Microsecond, Dur: 40 * time.Microsecond,
			Queue: 4 * time.Microsecond},
		{Name: "group 0", Cat: "outline", Start: 70 * time.Microsecond, Inst: true,
			Args: map[string]int64{"functions": 3}},
		{Name: "link", Cat: "stage", Lane: 0, Start: 80 * time.Microsecond, Dur: 15 * time.Microsecond},
	} {
		tr.record(r)
	}
	tr.Count("outline.functions", 3)
	return tr
}

// TestWriteTraceGolden validates the exact Chrome trace-event shape: the
// metadata lane names, X events with pid/tid/ts/dur, the instant event,
// and sorted timestamps.
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedTracer().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, buf.String())
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	// 3 metadata + 6 spans.
	if len(tf.TraceEvents) != 9 {
		t.Fatalf("%d events, want 9", len(tf.TraceEvents))
	}
	meta, spans := 0, 0
	lastTS := -1.0
	for _, ev := range tf.TraceEvents {
		if ev.PID == nil || ev.TID == nil {
			t.Fatalf("event %q missing pid/tid", ev.Name)
		}
		switch ev.Ph {
		case "M":
			meta++
			if ev.Name != "thread_name" {
				t.Errorf("metadata event %q", ev.Name)
			}
		case "X":
			spans++
			if ev.TS == nil || ev.Dur == nil {
				t.Fatalf("X event %q missing ts/dur", ev.Name)
			}
			if *ev.TS < lastTS {
				t.Errorf("event %q ts %v < previous %v (not sorted)", ev.Name, *ev.TS, lastTS)
			}
			lastTS = *ev.TS
		case "i":
			if ev.TS == nil {
				t.Fatalf("instant %q missing ts", ev.Name)
			}
			if *ev.TS < lastTS {
				t.Errorf("instant %q ts out of order", ev.Name)
			}
			lastTS = *ev.TS
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 || spans != 5 {
		t.Errorf("meta=%d spans=%d, want 3 and 5", meta, spans)
	}
	// The build span sorts first (ts 0) and the first X event after the
	// metadata block is it.
	first := tf.TraceEvents[3]
	if first.Name != "build" || *first.TS != 0 || *first.Dur != 100 {
		t.Errorf("first span = %q ts=%v dur=%v, want build/0/100", first.Name, *first.TS, *first.Dur)
	}
}

// TestSnapshot validates the metrics reduction: stage totals, per-category
// distributions, queue waits, and per-lane occupancy.
func TestSnapshot(t *testing.T) {
	snap := fixedTracer().Snapshot()
	if snap.WallUS != 100 {
		t.Errorf("wall = %d, want 100", snap.WallUS)
	}
	if snap.Stages["compile"] != 55 || snap.Stages["link"] != 15 {
		t.Errorf("stages: %v", snap.Stages)
	}
	ts, ok := snap.Tasks["compile"]
	if !ok {
		t.Fatalf("no compile task stats: %v", snap.Tasks)
	}
	// Percentiles are histogram-quantized: 30µs lands in the (28,32]
	// bucket and reports its upper bound; 40µs is itself a bound; max is
	// exact.
	if ts.Count != 2 || ts.TotalUS != 70 || ts.P50US != 32 || ts.P95US != 40 || ts.MaxUS != 40 {
		t.Errorf("compile stats: %+v", ts)
	}
	qs := snap.QueueWait["compile"]
	if qs.Count != 2 || qs.TotalUS != 6 || qs.MaxUS != 4 {
		t.Errorf("queue stats: %+v", qs)
	}
	if len(snap.Workers) != 2 {
		t.Fatalf("workers: %+v", snap.Workers)
	}
	if snap.Workers[0].Lane != 1 || snap.Workers[0].BusyUS != 30 || snap.Workers[0].Busy != 0.3 {
		t.Errorf("lane 1 occupancy: %+v", snap.Workers[0])
	}
	if snap.Workers[1].Lane != 2 || snap.Workers[1].Tasks != 1 || snap.Workers[1].Busy != 0.4 {
		t.Errorf("lane 2 occupancy: %+v", snap.Workers[1])
	}
	if snap.Counters["outline.functions"] != 3 {
		t.Errorf("counters: %v", snap.Counters)
	}
}

// TestWriteMetricsRoundTrip checks the metrics JSON parses back into the
// same snapshot.
func TestWriteMetricsRoundTrip(t *testing.T) {
	tr := fixedTracer()
	var buf bytes.Buffer
	if err := tr.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if got.WallUS != 100 || got.Stages["compile"] != 55 || got.Tasks["compile"].Count != 2 {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

// TestPoolObserverAdapter checks the par-facing callback records on the
// right lane with the right name.
func TestPoolObserverAdapter(t *testing.T) {
	tr := New()
	obs := tr.PoolObserver("lint", func(i int) string { return "m" + string(rune('0'+i)) })
	obs(1, 2, 3*time.Microsecond, 10*time.Microsecond)
	spans := tr.spans()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	s := spans[0]
	if s.Name != "m2" || s.Cat != "lint" || s.Lane != 2 || s.Queue != 3*time.Microsecond {
		t.Errorf("span: %+v", s)
	}
}

// TestSnapshotCostIndependentOfHistory pins the bounded scrape: Snapshot
// reads the record-time aggregate, so after 100 000 tasks it makes the
// same allocations, and about the same bytes, as after 100 tasks over the
// same categories and lanes.
func TestSnapshotCostIndependentOfHistory(t *testing.T) {
	cost := func(n int) (allocs float64, bytes uint64) {
		tr := New()
		tr.Start("stage", "compile").End()
		tr.Count("widgets", 1)
		compile := tr.PoolObserver("compile", nil)
		lint := tr.PoolObserver("lint", nil)
		for i := 0; i < n; i++ {
			compile(i%3, i, time.Microsecond, time.Duration(i%500)*time.Microsecond)
			lint(i%3, i, 0, time.Microsecond)
		}
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			tr.Snapshot()
		}
		runtime.ReadMemStats(&m1)
		return testing.AllocsPerRun(runs, func() { tr.Snapshot() }), (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(100)
	largeAllocs, largeBytes := cost(100_000)
	if smallAllocs != largeAllocs {
		t.Errorf("Snapshot allocs: %v after 100 tasks, %v after 100000", smallAllocs, largeAllocs)
	}
	if largeBytes > 2*smallBytes {
		t.Errorf("Snapshot bytes: %d after 100 tasks, %d after 100000", smallBytes, largeBytes)
	}
}

// TestChildFoldsIntoParent: a child's spans stay in its own log, while its
// records and counters reach the parent's snapshot as they are recorded.
func TestChildFoldsIntoParent(t *testing.T) {
	parent := New()
	parent.PoolObserver("compile", nil)(0, 0, 2*time.Microsecond, 10*time.Microsecond)
	a, b := parent.Child(), parent.Child()
	if a.t0 != parent.t0 {
		t.Error("child does not share the parent's clock")
	}
	a.Start("stage", "compile").End()
	a.PoolObserver("compile", nil)(1, 0, 4*time.Microsecond, 20*time.Microsecond)
	a.Count("widgets", 2)
	b.PoolObserver("compile", nil)(0, 0, 0, 30*time.Microsecond)
	b.Count("widgets", 3)

	if n := len(parent.spans()); n != 1 {
		t.Errorf("parent span log holds %d spans, want only its own 1", n)
	}
	if n := len(a.spans()); n != 2 {
		t.Errorf("child span log holds %d spans, want 2", n)
	}
	ps := parent.Snapshot()
	if got := ps.Tasks["compile"]; got.Count != 3 || got.TotalUS != 60 {
		t.Errorf("parent compile stats %+v, want 3 tasks, 60µs", got)
	}
	if got := ps.QueueWait["compile"]; got.Count != 3 || got.TotalUS != 6 {
		t.Errorf("parent queue stats %+v, want 3 waits, 6µs", got)
	}
	if _, ok := ps.Stages["compile"]; !ok {
		t.Errorf("parent stages %v lack the child's compile stage", ps.Stages)
	}
	if ps.Counters["widgets"] != 5 {
		t.Errorf("parent counter = %d, want 5", ps.Counters["widgets"])
	}
	as := a.Snapshot()
	if as.Tasks["compile"].Count != 1 || as.Counters["widgets"] != 2 {
		t.Errorf("child snapshot %+v holds more than its own records", as)
	}

	// A grandchild feeds every ancestor.
	a.Child().Count("widgets", 1)
	if got := parent.Snapshot().Counters["widgets"]; got != 6 {
		t.Errorf("parent counter after grandchild = %d, want 6", got)
	}
}

// TestStartProfile exercises both pprof modes.
func TestStartProfile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	stop, err := StartProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		_ = strings.Repeat("x", 10)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile: %v, size %v", err, fi)
	}

	mem := filepath.Join(dir, "mem.out")
	stop, err = StartProfile(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Errorf("mem profile: %v", err)
	}
}
