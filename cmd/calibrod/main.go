// Command calibrod is the compile-as-a-service daemon: the Calibro
// pipeline behind an HTTP job API. Jobs name a benchmark app profile (or
// carry a serialized dex payload), pick an evaluation-ladder
// configuration, and run on a fixed pool of build workers behind a
// bounded queue — a full queue rejects submits with 429 rather than
// buffering without bound. All jobs share one content-addressed
// compilation cache, and every job's tracer folds into one daemon-wide
// telemetry aggregate; both are exported at /metrics.
//
// Usage:
//
//	calibrod [-addr host:port] [-queue N] [-jobs N] [-j N]
//	         [-max-job-time d] [-scale f] [-cache] [-cache-dir DIR]
//	         [-cache-max-entries N] [-cache-max-bytes N]
//	         [-remote-cache URL] [-remote-timeout d] [-fleet-wait d]
//	         [-drain-timeout d] [-log FILE] [-max-body N] [-retention N]
//
// -remote-cache points at a calibrocached store shared by the fleet:
// method compilations and whole-build artifacts are fetched from and
// published to it, and identical in-flight builds coalesce across
// daemons. Every remote failure degrades to a cache miss.
//
// -log enables structured JSON job and access logs ("-" for stderr);
// logging is off by default and strictly observational — images are
// byte-identical with it on or off. /metrics?format=prom exposes the
// serving counters in the Prometheus text format; GET /jobs/{id}/trace
// serves one job's lifecycle and build spans as Chrome trace JSON.
//
// On SIGINT/SIGTERM the daemon stops admission, drains queued and
// running jobs (up to -drain-timeout, then force-cancels), and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "calibrod:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("calibrod", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr         = fs.String("addr", "127.0.0.1:7723", "listen address (port 0 picks a free port)")
		queueDepth   = fs.Int("queue", 16, "job queue depth; submits beyond it get HTTP 429")
		jobs         = fs.Int("jobs", 2, "concurrent builds")
		buildWorkers = fs.Int("j", 0, "per-build worker goroutines; 0 = all CPUs")
		maxJobTime   = fs.Duration("max-job-time", 2*time.Minute, "per-job deadline cap, measured from submission")
		scale        = fs.Float64("scale", 0.25, "default app scale for jobs that do not set one")
		useCache     = fs.Bool("cache", true, "share a compilation cache across jobs")
		cacheDir     = fs.String("cache-dir", "", "persist the cache in this directory (implies -cache)")
		cacheMaxEnt  = fs.Int("cache-max-entries", 0, "evict oldest cache entries beyond this count; 0 = unbounded")
		cacheMaxB    = fs.Int64("cache-max-bytes", 0, "evict oldest cache entries beyond this many bytes; 0 = unbounded")
		remoteCache  = fs.String("remote-cache", "", "calibrocached base URL; shares the cache and coalesces builds across daemons (implies -cache)")
		remoteTO     = fs.Duration("remote-timeout", 0, "per-request deadline against the remote cache; 0 = 2s default")
		fleetWait    = fs.Duration("fleet-wait", 0, "how long a coalesced job waits for a peer's build before building locally; 0 = 30s default")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long to let jobs finish on shutdown before force-cancelling")
		logPath      = fs.String("log", "", "write JSON-lines job/access logs to this file (\"-\" = stderr); off when empty")
		maxBody      = fs.Int64("max-body", 0, "submit body size limit in bytes; over it is HTTP 413; 0 = 64MiB default")
		retention    = fs.Int("retention", 0, "terminal jobs kept pollable before FIFO eviction; 0 = 1024, negative = unbounded")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	cfg := serve.Config{
		QueueDepth:   *queueDepth,
		Workers:      *jobs,
		BuildWorkers: *buildWorkers,
		MaxJobTime:   *maxJobTime,
		Scale:        *scale,
		Tracer:       obs.New(),
		MaxBody:      *maxBody,
		Retention:    *retention,
	}
	if *logPath != "" {
		w := io.Writer(os.Stderr)
		if *logPath != "-" {
			f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		cfg.Log = serve.NewEventLogger(w)
	}
	if *useCache || *cacheDir != "" || *remoteCache != "" {
		var c *cache.Cache
		if *cacheDir != "" {
			var err error
			if c, err = cache.NewDir(*cacheDir); err != nil {
				return err
			}
		} else {
			c = cache.New()
		}
		if *cacheMaxEnt > 0 || *cacheMaxB > 0 {
			c.SetLimits(*cacheMaxEnt, *cacheMaxB)
		}
		if *remoteCache != "" {
			// The remote tier slots above memory/disk and, via the serve
			// layer, enables whole-build artifact sharing and cross-daemon
			// single-flight. Strict degrade-to-miss: a dead or flaky
			// calibrocached costs hit rate, never a build.
			c.SetRemote(cache.NewRemote(cache.RemoteConfig{
				URL:     *remoteCache,
				Timeout: *remoteTO,
			}))
			cfg.FleetWait = *fleetWait
		}
		cfg.Cache = c
	}

	// Listen before announcing, so -addr :0 resolves to the real port and
	// scripts can scrape it from the first output line. Listen before
	// starting the server, so a bad -addr leaves no build workers behind.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := serve.New(cfg)
	fmt.Fprintf(out, "calibrod: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-httpErr:
		return err
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(out, "calibrod: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(out, "calibrod: drain incomplete, jobs cancelled: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(out, "calibrod: bye")
	return nil
}
