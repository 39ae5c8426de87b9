package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded in memory and written out
// when the run ends. Spans of one op share Op; Parent is the op's root
// span. Side spans are calls made on the op's inputs after the op ended
// (separate measurements), so they are not part of its critical path.
type span struct {
	Op      int     `json:"op"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Side    bool    `json:"side,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// spanLog is the run's in-memory span store; concurrent clients share it.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(op, parent int, name string, side bool, start time.Time, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Op: op, ID: id, Parent: parent, Name: name, Side: side})
	l.setLocked(id, start, d)
	return id
}

// set fixes the interval of span id, reserved earlier by add.
func (l *spanLog) set(id int, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.setLocked(id, start, d)
}

func (l *spanLog) setLocked(id int, start time.Time, d time.Duration) {
	sp := &l.spans[id-1]
	sp.StartUS = float64(start.Sub(l.t0).Nanoseconds()) / 1e3
	sp.DurUS = float64(d.Nanoseconds()) / 1e3
}

// write stores the spans as JSON under dir.
func (l *spanLog) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// opTrace collects one traced op's layer values and spans. The op's own
// span is added by finish, once its duration is known; layer spans point
// at its ID, reserved up front.
type opTrace struct {
	op    int
	root  int
	log   *spanLog
	start time.Time
	top   time.Duration // sum of top-level layer durations
	dur   time.Duration // the op's duration, set by finish
	vals  map[string]float64
}

func newOpTrace(log *spanLog, op int) *opTrace {
	t := &opTrace{op: op, log: log, vals: map[string]float64{}}
	t.root = log.add(op, 0, "op", false, time.Now(), 0)
	t.start = time.Now()
	return t
}

// layer times one top-level call on the op's critical path and records
// it as metric name (milliseconds) and as a span.
func (t *opTrace) layer(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.log.add(t.op, t.root, name, false, start, d)
	t.top += d
	t.vals[name] += ms(d)
	return err
}

// side times a separate call made after the op on its inputs.
func (t *opTrace) side(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.log.add(t.op, t.root, name, true, start, d)
	t.vals[name] += ms(d)
	return err
}

// set records a non-time layer value.
func (t *opTrace) set(name string, v float64) { t.vals[name] = v }

// finish closes the op span and records the residue: op time not covered
// by any top-level layer.
func (t *opTrace) finish() {
	t.dur = time.Since(t.start)
	t.log.set(t.root, t.start, t.dur)
	t.vals["residue_ms"] = ms(t.dur - t.top)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocated returns the process's cumulative heap allocation in bytes.
// It stops the world briefly, so only traced runs call it.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// allocSplit attributes the heap allocations made by fn to the layer
// package innermost on each allocating stack, using the runtime's sampled
// heap profile. It answers where the bytes of a call that interleaves
// several layers go, which a window around the call cannot. Results are
// in bytes, unbiased for the sampling rate the way pprof does it.
func allocSplit(fn func()) map[string]float64 {
	const rate = 4096
	old := runtime.MemProfileRate
	runtime.MemProfileRate = rate
	defer func() { runtime.MemProfileRate = old }()

	// The profile publishes allocations at the end of a GC cycle; two
	// cycles flush everything made before the snapshot.
	runtime.GC()
	runtime.GC()
	before := memProfile()
	fn()
	runtime.GC()
	runtime.GC()
	after := memProfile()

	out := map[string]float64{}
	for stk, a := range after {
		b := before[stk]
		bytes, objs := a[0]-b[0], a[1]-b[1]
		if bytes <= 0 || objs <= 0 {
			continue
		}
		avg := float64(bytes) / float64(objs)
		scale := 1 / (1 - math.Exp(-avg/rate))
		out[layerOf(stk)] += float64(bytes) * scale
	}
	return out
}

type stackKey [32]uintptr

func memProfile() map[stackKey][2]int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[stackKey][2]int64, n)
	for _, r := range recs[:n] {
		out[r.Stack0] = [2]int64{r.AllocBytes, r.AllocObjects}
	}
	return out
}

// layerPkgs maps the repository's packages onto benchmark layers; helper
// packages (par, a64, dex, ...) are skipped so their allocations land on
// the layer that called them.
var layerPkgs = map[string]string{
	"analysis":    "analysis",
	"outline":     "outline",
	"suffixtree":  "outline",
	"suffixarray": "outline",
	"reoutline":   "reoutline",
	"codegen":     "codegen",
	"hgraph":      "hgraph",
	"oat":         "oat",
	"cache":       "cache",
	"serve":       "serve",
	"obs":         "obs",
}

func layerOf(stk stackKey) string {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if l, ok := layerPkgs[pkg]; ok {
				return l
			}
		}
		if !more {
			return "other"
		}
	}
}
