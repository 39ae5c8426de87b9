// Command layerbench is the repository's layered benchmark. One process
// runs one closed-loop workload, prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) by name and unit, and checks every
// output it produced:
//
//	bash layerbench/run.sh --workload build-cold --seed 1 --seconds 10 --trace 0
//
// An op is one build, one post-link rewrite, or one served job. A run sets
// its workload up several times (setup_s is the median), then times whole
// passes over the workload's app roster until --seconds have elapsed and
// every app has enough samples for p90, then verifies each output against
// a reference built at Workers=1 and runs the lint and emulator-versus-
// interpreter checks once per distinct output. The last line of standard
// output is one JSON object; a failed check makes the exit status non-zero.
// NOTES.md explains the workloads, the metrics and their rationale.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dex"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// workloadDef is one named closed-loop workload.
type workloadDef struct {
	name  string
	scale float64
	// maxPasses caps a run at the inputs its set-up prepares; 0 is no cap.
	maxPasses int
	setup     func(ctx context.Context, seed int64, scale float64) (runner, error)
}

var workloads = []workloadDef{
	{name: "build-cold", scale: 0.05, setup: setupBuildCold},
	{name: "relink-warm", scale: 0.12, setup: setupRelinkWarm},
	{name: "post-link", scale: 0.03, setup: setupPostLink},
	{name: "serve-update", scale: 0.05, maxPasses: serveVersions, setup: setupServe},
}

const (
	// A run sets its workload up at least minSetups times and until
	// setupBudget is spent, at most maxSetups times; setup_s is the median
	// and the last set-up is the one measured.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
	// minPasses gives every app 100 samples, the fewest with 10 beyond
	// p90. Traced runs report medians only and need fewer.
	minPasses      = 100
	traceMinPasses = 20
	// hardLimit ends a run that cannot reach its passes in time.
	hardLimit = 120 * time.Second
	// scriptRounds is the Table 7 script length the cycle check runs.
	scriptRounds = 20
)

// outKey names one distinct expected output: an app of the roster and,
// for workloads that submit successive app versions, the version.
type outKey struct{ app, version int }

// record is one timed op's outcome.
type record struct {
	key outKey
	sum [32]byte
	err error
}

// runner is one set-up workload instance.
type runner interface {
	// roster names the apps one pass covers, in pass order.
	roster() []string
	// loop times whole passes, recording each op into m, until m.endPass
	// reports the run is over.
	loop(ctx context.Context, m *measure) error
	// input is the dex app and manifest an output key was built from.
	input(k outKey) (*dex.App, *workload.Manifest)
	// reference produces the output for k at Workers=1 with no warm
	// state beyond what the op itself is defined to use.
	reference(ctx context.Context, k outKey) ([]byte, error)
	// gated reports whether the per-output checks run on k.
	gated(k outKey) bool
	// finish adds run-level layer values after a traced loop.
	finish(ctx context.Context, m *measure) error
	close()
}

// measure is the timed state of one run.
type measure struct {
	opts      options
	minPasses int
	maxPasses int
	start     time.Time
	elapsed   time.Duration
	passes    int

	cal        *calibrator
	lastCal    time.Time
	calSamples []float64     // kernel times, ms
	calWall    time.Duration // window time spent calibrating
	calCPU     time.Duration // CPU time spent calibrating

	lat       [][]float64 // per app: untraced op latency, ms
	tracedLat [][]float64 // per app: traced op latency, ms
	recs      []record
	layers    []map[string]float64 // one per traced op
	run       map[string]float64   // run-level layer values
	spans     *spanLog
}

func newMeasure(opts options, cal *calibrator, apps, minP, maxP int) *measure {
	return &measure{
		opts: opts, cal: cal, minPasses: minP, maxPasses: maxP,
		lat: make([][]float64, apps), tracedLat: make([][]float64, apps),
		run: map[string]float64{}, spans: &spanLog{t0: time.Now()},
	}
}

// add records one op. The output hash is taken here, outside the op's
// timed window.
func (m *measure) add(k outKey, d time.Duration, out []byte, err error, traced bool) {
	r := record{key: k, err: err}
	if err == nil {
		r.sum = sha256.Sum256(out)
	}
	m.recs = append(m.recs, r)
	if err != nil {
		return
	}
	if traced {
		m.tracedLat[k.app] = append(m.tracedLat[k.app], ms(d))
	} else {
		m.lat[k.app] = append(m.lat[k.app], ms(d))
	}
}

// endPass is called at every pass boundary, with no op in flight. It runs
// the calibration kernel when one is due, keeps its time out of the
// window, and reports whether the run is over.
func (m *measure) endPass() bool {
	m.passes++
	if time.Since(m.lastCal) >= calibrateEvery {
		t0, c0 := time.Now(), cpuTime()
		m.calSamples = append(m.calSamples, ms(m.cal.run()))
		m.calCPU += cpuTime() - c0
		m.lastCal = time.Now()
		m.calWall += m.lastCal.Sub(t0)
	}
	m.elapsed = time.Since(m.start) - m.calWall
	return stopAfterPass(m.elapsed, m.opts.seconds, m.passes, m.minPasses, m.maxPasses) ||
		m.elapsed > hardLimit
}

// opFunc runs one op on roster app a. A non-nil t asks for the traced
// decomposition: the op calls t.finish when its critical path ends and
// may then make side measurements.
type opFunc func(ctx context.Context, a int, t *opTrace) ([]byte, error)

// sequentialLoop is the one-client closed loop: ops run one at a time in
// roster order. A traced run pairs every untraced op with its traced
// twin on the same input, alternating which goes first from pass to
// pass, so the tracing overhead is not an order effect.
func sequentialLoop(ctx context.Context, m *measure, n int, op opFunc) error {
	for pass := 0; ; pass++ {
		for a := 0; a < n; a++ {
			k := outKey{app: a}
			plain := func() {
				t0 := time.Now()
				out, err := op(ctx, a, nil)
				m.add(k, time.Since(t0), out, err, false)
			}
			traced := func() {
				t := newOpTrace(m.spans, len(m.recs))
				out, err := op(ctx, a, t)
				m.add(k, t.dur, out, err, true)
				m.layers = append(m.layers, t.vals)
			}
			switch {
			case !m.opts.trace:
				plain()
			case pass%2 == 0:
				plain()
				traced()
			default:
				traced()
				plain()
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if m.endPass() {
			return nil
		}
	}
}

// metricDef names one printed metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"text_ratio", "ratio"},
	{"cycles_ratio", "ratio"},
	{"success_rate", "ratio"},
}

// perLayer lists every traced metric. Values are medians over traced ops
// unless NOTES.md says otherwise; a layer a workload does not run reads 0.
var perLayer = []metricDef{
	{"hgraph.ms", "ms"},
	{"hgraph.insns", "count"},
	{"codegen.ms", "ms"},
	{"codegen.alloc_mb", "MB"},
	{"codegen.words", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.misses", "count"},
	{"outline.snap_ms", "ms"},
	{"outline.run_ms", "ms"},
	{"outline.verify_ms", "ms"},
	{"outline.sepscan_ms", "ms"},
	{"outline.symbolize_ms", "ms"},
	{"outline.detect_ms", "ms"},
	{"outline.rewrite_ms", "ms"},
	{"outline.unattributed_ms", "ms"},
	{"outline.symbols", "count"},
	{"outline.functions", "count"},
	{"outline.words_saved", "count"},
	{"outline.alloc_mb", "MB"},
	{"suffixtree.build_ms", "ms"},
	{"suffixtree.ns_per_symbol", "ns"},
	{"oat.unmarshal_ms", "ms"},
	{"oat.link_ms", "ms"},
	{"oat.marshal_ms", "ms"},
	{"oat.image_kb", "KB"},
	{"analysis.debloat_ms", "ms"},
	{"analysis.lint_ms", "ms"},
	{"analysis.callgraph_ms", "ms"},
	{"analysis.paired_ms", "ms"},
	{"analysis.alloc_mb", "MB"},
	{"analysis.methods_removed", "count"},
	{"reoutline.ms", "ms"},
	{"reoutline.admit_ms", "ms"},
	{"reoutline.lift_ms", "ms"},
	{"reoutline.detect_ms", "ms"},
	{"reoutline.relink_ms", "ms"},
	{"reoutline.verify_ms", "ms"},
	{"reoutline.lift_ratio", "ratio"},
	{"reoutline.bytes_saved", "count"},
	{"reoutline.alloc_mb", "MB"},
	{"serve.submit_ms", "ms"},
	{"serve.poll_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.build_ms", "ms"},
	{"serve.rejected", "count"},
	{"obs.metrics_ms", "ms"},
	{"obs.tasks_per_op", "count"},
	{"residue_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; it perturbs every generated app")
	seconds := fs.Int("seconds", 10, "minimum timed seconds per run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "layerbench: need --workload %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, stamp, err := runWorkload(context.Background(), def, opts)
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, stamp)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "layerbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// runWorkload sets up, measures and verifies one run.
func runWorkload(ctx context.Context, def *workloadDef, opts options) (*result, string, error) {
	cal := newCalibrator()
	var r runner
	var setupS []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if r != nil {
			r.close()
		}
		// Every set-up starts from a collected heap, as the window does.
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = def.setup(ctx, opts.seed, def.scale); err != nil {
			return nil, "", fmt.Errorf("%s setup: %w", def.name, err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	defer r.close()

	minP := minPasses
	if opts.trace {
		minP = traceMinPasses
	}
	roster := r.roster()
	m := newMeasure(opts, cal, len(roster), minP, def.maxPasses)
	// Start the timed window from a collected heap so set-up garbage does
	// not bill the first ops; no GC is forced inside the window.
	runtime.GC()
	cpu0 := cpuTime()
	m.start = time.Now()
	if err := r.loop(ctx, m); err != nil {
		return nil, "", fmt.Errorf("%s: %w", def.name, err)
	}
	cpu := cpuTime() - cpu0 - m.calCPU
	rss, err := peakRSSMB()
	if err != nil {
		return nil, "", err
	}
	if opts.trace {
		if err := r.finish(ctx, m); err != nil {
			return nil, "", fmt.Errorf("%s: %w", def.name, err)
		}
	}

	v, err := verify(ctx, r, m.recs, opts.seed)
	if err != nil {
		return nil, "", fmt.Errorf("%s verify: %w", def.name, err)
	}
	for _, msg := range v.problems {
		fmt.Fprintln(os.Stderr, "layerbench: check failed:", msg)
	}

	res := &result{Attempted: len(m.recs), Failed: v.failed, Metrics: map[string]metric{}}
	res.Correct = v.failed == 0 && len(v.problems) == 0
	// Times are reported at the reference host speed (see calibrate.go).
	calMS := lowQuartile(m.calSamples)
	speed := ms(calibrationRef) / calMS
	lat, passes := wholePasses(m.lat)
	if opts.trace {
		vals := layerValues(m)
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	} else {
		ops := passes * len(roster)
		p50, ok50 := perAppPercentile(lat, 0.5)
		p90, ok90 := perAppPercentile(lat, 0.9)
		if !ok50 || !ok90 || ops == 0 {
			return nil, "", fmt.Errorf("%s: %d passes are too few for p90 (need %d)", def.name, passes, minPasses)
		}
		vals := map[string]float64{
			"setup_s":       median(setupS) * speed,
			"ops_per_s":     float64(ops) / m.elapsed.Seconds() / speed,
			"op_ms_p50":     p50 * speed,
			"op_ms_p90":     p90 * speed,
			"cpu_ms_per_op": ms(cpu) / float64(ops) * speed,
			"peak_rss_mb":   rss,
			"text_ratio":    v.textRatio,
			"cycles_ratio":  v.cyclesRatio,
			"success_rate":  float64(res.Attempted-res.Failed) / float64(res.Attempted),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}
	if opts.trace {
		dir := ".bench_build/spans"
		if err := m.spans.write(dir, fmt.Sprintf("spans-%s-seed%d.json", def.name, opts.seed)); err != nil {
			return nil, "", err
		}
	}
	stamp := fmt.Sprintf("layerbench workload=%s seed=%d scale=%g trace=%v nproc=%d gomaxprocs=%d go=%s passes=%d ops_per_app=%d elapsed_s=%.3f calibration_ms=%.4f samples=%d time_scale=%.4f",
		def.name, opts.seed, def.scale, opts.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), m.passes, len(m.recs)/len(roster), m.elapsed.Seconds(), calMS, len(m.calSamples), speed)
	return res, stamp, nil
}

// layerValues reduces a traced run to one value per layer metric: the
// median over traced ops, overridden by run-level values, plus the
// tracing overhead.
func layerValues(m *measure) map[string]float64 {
	vals := map[string]float64{}
	for _, d := range perLayer {
		var xs []float64
		for _, l := range m.layers {
			xs = append(xs, l[d.name])
		}
		vals[d.name] = median(xs)
	}
	for k, v := range m.run {
		vals[k] = v
	}
	var traced, plain []float64
	for a := range m.lat {
		traced = append(traced, median(m.tracedLat[a]))
		plain = append(plain, median(m.lat[a]))
	}
	if g := geomean(plain); g > 0 {
		vals["trace_overhead_pct"] = (geomean(traced)/g - 1) * 100
	}
	return vals
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// sortedKeys returns the distinct output keys of the records in order.
func sortedKeys(recs []record) []outKey {
	seen := map[outKey]bool{}
	var keys []outKey
	for _, r := range recs {
		if !seen[r.key] {
			seen[r.key] = true
			keys = append(keys, r.key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].app != keys[j].app {
			return keys[i].app < keys[j].app
		}
		return keys[i].version < keys[j].version
	})
	return keys
}
