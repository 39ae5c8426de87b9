package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/workload"
)

const (
	// serveVersions is how many app-update versions per app set-up
	// generates; a serve-update run ends after at most that many passes.
	serveVersions = 240
	// serveDelta is the share of methods each version changes.
	serveDelta = 0.10
)

// serveRunner drives an in-process calibrod on loopback with calibrod's
// defaults (live tracer, shared memory cache, two build slots). Each of
// up to two clients owns part of the roster and, pass after pass, submits
// the next app-update version of each of its apps as a dex payload,
// long-polls the job and fetches the image. A pass ends when both
// clients are done, so the cache sees the same hits and writes in every
// run with the same seed.
type serveRunner struct {
	names    []string
	payloads [][][]byte // [app][version]: dex bytes; version 0 is the launch
	owners   [][]int    // per client: the apps it owns

	cache  *cache.Cache
	tracer *obs.Tracer
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	rejected atomic.Int64
	refCache *cache.Cache // the references' private cache
}

func setupServe(ctx context.Context, seed int64, scale float64) (runner, error) {
	profiles := seeded(workload.Apps(scale), seed)
	s := &serveRunner{payloads: make([][][]byte, len(profiles)), refCache: cache.New()}
	for i, p := range profiles {
		s.names = append(s.names, p.Name)
		s.payloads[i] = make([][]byte, serveVersions+1)
	}
	per := serveVersions + 1
	if err := par.EachCtx(ctx, runtime.GOMAXPROCS(0), len(profiles)*per, func(i int) error {
		a, v := i/per, i%per
		app, _, err := workload.Generate(workload.Update(profiles[a], v, serveDelta))
		if err != nil {
			return err
		}
		data, err := dex.Marshal(app)
		// Clone drops the encoder's spare capacity: set-up holds every
		// payload for the whole run.
		s.payloads[a][v] = bytes.Clone(data)
		return err
	}); err != nil {
		return nil, err
	}
	s.owners = partition(profiles, min(2, runtime.NumCPU()))

	s.cache = cache.New()
	s.tracer = obs.New()
	s.srv = serve.New(serve.Config{Cache: s.cache, Tracer: s.tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}

	for a := range profiles {
		if r := s.job(ctx, a, 0, nil); r.err != nil {
			s.close()
			return nil, fmt.Errorf("launch version of %s: %w", s.names[a], r.err)
		}
	}
	return s, nil
}

// partition deals the apps to clients, largest first onto the client
// with the fewest methods, so the clients' passes take similar time.
func partition(profiles []workload.Profile, clients int) [][]int {
	if clients < 1 {
		clients = 1
	}
	order := make([]int, len(profiles))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return profiles[order[i]].Methods > profiles[order[j]].Methods })
	owners := make([][]int, clients)
	load := make([]int, clients)
	for _, a := range order {
		c := 0
		for i := range load {
			if load[i] < load[c] {
				c = i
			}
		}
		owners[c] = append(owners[c], a)
		load[c] += profiles[a].Methods
	}
	for _, o := range owners {
		sort.Ints(o)
	}
	return owners
}

// jobResult is one served job as its client saw it.
type jobResult struct {
	image []byte
	lat   time.Duration
	err   error
	vals  map[string]float64 // traced jobs only
}

// job submits version v of app a, long-polls it and fetches the image.
// A non-nil t records the client-side stages and the job's own timings.
func (s *serveRunner) job(ctx context.Context, a, v int, t *opTrace) (r jobResult) {
	body, err := json.Marshal(serve.JobRequest{Dex: s.payloads[a][v], Config: "plopti"})
	if err != nil {
		return jobResult{err: err}
	}
	stage := func(name string, fn func() error) error {
		if t == nil {
			return fn()
		}
		return t.layer(name, fn)
	}
	start := time.Now()
	var st serve.JobStatus
	err = stage("serve.submit_ms", func() error {
		for {
			code, err := s.call(ctx, http.MethodPost, "/jobs", body, &st)
			if err != nil {
				return err
			}
			if code != http.StatusTooManyRequests {
				if code != http.StatusAccepted {
					return fmt.Errorf("submit: HTTP %d", code)
				}
				return nil
			}
			s.rejected.Add(1)
			time.Sleep(10 * time.Millisecond)
		}
	})
	if err == nil {
		err = stage("serve.poll_ms", func() error {
			for st.State == serve.StateQueued || st.State == serve.StateRunning {
				if _, err := s.call(ctx, http.MethodGet, "/jobs/"+st.ID+"?wait=30s", nil, &st); err != nil {
					return err
				}
			}
			if st.State != serve.StateDone {
				return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			}
			return nil
		})
	}
	if err == nil {
		err = stage("serve.fetch_ms", func() (err error) {
			r.image, err = s.get(ctx, "/jobs/"+st.ID+"/image")
			return err
		})
	}
	r.lat = time.Since(start)
	r.err = err
	if t != nil {
		t.finish()
		if err == nil && st.Stats != nil {
			wait, build := float64(st.Stats.QueueWaitUS)/1e3, float64(st.Stats.WallUS)/1e3
			t.set("serve.queue_wait_ms", wait)
			t.set("serve.build_ms", build)
			// The job's queue wait starts inside the submit call, so the
			// residue is the client's time to the image minus the fetch
			// and the job's own queue wait and build: request decoding,
			// image encoding, notification and HTTP.
			t.set("residue_ms", ms(t.dur)-t.vals["serve.fetch_ms"]-wait-build)
		}
		r.lat = t.dur
		r.vals = t.vals
	}
	return r
}

// call sends a JSON request and decodes the JSON answer into out.
func (s *serveRunner) call(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// get fetches a raw body.
func (s *serveRunner) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return data, err
}

func (s *serveRunner) roster() []string { return s.names }

// loop runs pass after pass; pass p submits version p+1 of every app. In
// a traced run every other pass records the per-stage split, so the
// untraced passes in between give the tracing overhead.
func (s *serveRunner) loop(ctx context.Context, m *measure) error {
	tasks0 := taskCount(s.tracer.Snapshot())
	var hits, misses int64
	for pass := 0; ; pass++ {
		traced := m.opts.trace && pass%2 == 1
		c0 := s.cache.Stats()
		results := make([]jobResult, len(s.names))
		var wg sync.WaitGroup
		for _, owned := range s.owners {
			wg.Add(1)
			go func(owned []int) {
				defer wg.Done()
				for _, a := range owned {
					var t *opTrace
					if traced {
						t = newOpTrace(m.spans, pass*len(s.names)+a)
					}
					results[a] = s.job(ctx, a, pass+1, t)
				}
			}(owned)
		}
		wg.Wait()
		c1 := s.cache.Stats()
		if pass < traceMinPasses {
			hits += c1.Hits - c0.Hits
			misses += c1.Misses - c0.Misses
		}
		for a, r := range results {
			m.add(outKey{app: a, version: pass + 1}, r.lat, r.image, r.err, traced)
			if traced {
				m.layers = append(m.layers, r.vals)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if m.endPass() {
			break
		}
	}
	if !m.opts.trace {
		return nil
	}
	// The cache and task figures cover the first traceMinPasses passes,
	// which every traced run completes, so they repeat exactly.
	ops := float64(min(m.passes, traceMinPasses) * len(s.names))
	if hits+misses > 0 {
		m.run["cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m.run["cache.misses"] = float64(misses) / ops
	m.run["serve.rejected"] = float64(s.rejected.Load())
	t0 := time.Now()
	var met serve.Metrics
	if _, err := s.call(ctx, http.MethodGet, "/metrics", nil, &met); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	m.run["obs.metrics_ms"] = ms(time.Since(t0))
	if met.Telemetry == nil {
		return errors.New("metrics: no telemetry in /metrics")
	}
	m.run["obs.tasks_per_op"] = float64(taskCount(met.Telemetry)-tasks0) / float64(m.passes*len(s.names))
	return nil
}

func taskCount(snap *obs.Snapshot) int {
	n := 0
	for _, ts := range snap.Tasks {
		n += ts.Count
	}
	return n
}

// input decodes the payload the daemon received for k, with the daemon's
// convention that the leading three methods are the drivers.
func (s *serveRunner) input(k outKey) (*dex.App, *workload.Manifest) {
	app, err := dex.UnmarshalApp(s.payloads[k.app][k.version])
	if err != nil {
		panic(fmt.Sprintf("payload generated in set-up does not decode: %v", err))
	}
	man := &workload.Manifest{}
	for i := 0; i < 3 && i < app.NumMethods(); i++ {
		man.Drivers = append(man.Drivers, dex.MethodID(i))
	}
	return app, man
}

// reference builds the version the library way at Workers=1 with a
// private cache; cache warmth must not change a byte.
func (s *serveRunner) reference(ctx context.Context, k outKey) ([]byte, error) {
	app, _ := s.input(k)
	cfg := core.CTOLTBOPl(8)
	cfg.Workers = 1
	cfg.Cache = s.refCache
	res, err := core.BuildCtx(ctx, app, cfg)
	if err != nil {
		return nil, err
	}
	return res.Image.Marshal()
}

// gated samples the per-output checks: every version's output is
// hash-checked, but the lint, emulator and ratio checks run on each
// app's first timed version only; hundreds of emulated scripts would
// not fit the run.
func (s *serveRunner) gated(k outKey) bool { return k.version == 1 }

func (s *serveRunner) finish(ctx context.Context, m *measure) error {
	var insns []float64
	for a := range s.names {
		app, _ := s.input(outKey{app: a, version: 1})
		n, err := irInsns(app, true)
		if err != nil {
			return err
		}
		insns = append(insns, float64(n))
	}
	m.run["hgraph.insns"] = median(insns)
	return nil
}

func (s *serveRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Drain(ctx)   //nolint:errcheck // a forced drain still stops every job
	s.hs.Shutdown(ctx) //nolint:errcheck // the listener closes either way
	<-s.served
	s.client.CloseIdleConnections()
}
