// Command calibroload replays a seeded, realistic serving workload
// against a live calibrod and reports what the daemon's own counters
// cannot: the latency the *client* saw, under the traffic shape a build
// farm actually faces. The generator is deterministic from -seed:
//
//   - app popularity is Zipf-distributed over the benchmark profiles
//     (a few apps dominate, the tail is cold — what makes a cache
//     interesting), with the adversarial "Obfuscated" profile in the
//     tail;
//   - arrivals are open-loop Poisson at -rate: submits fire on the
//     schedule whether or not earlier jobs finished, so queueing delay
//     is measured instead of hidden (closed-loop clients self-throttle
//     and flatter the server);
//   - every -update-every submits, one popular app ships an update
//     (version bump regenerating -delta of its methods), so the cache
//     sees the warm-majority/cold-delta mix of real release traffic;
//   - a -hostile fraction of submits are oversized bodies, exercising
//     the daemon's -max-body bound (deterministic 413s when the bound is
//     below -hostile-bytes).
//
// The report prints served/failed/rejected totals, client-observed
// latency and queue-wait percentiles (from the same bounded histogram
// type the daemon uses), and, over the run, the daemon's method-cache hit
// rate next to its fleet_hits (jobs served whole from a shared artifact).
// A run that made no method-cache lookup prints the rate as n/a: a fleet
// that served every job from shared artifacts is warm, not cold.
//
// Fleet mode: -fleet replays the identical plan against several daemons,
// routing each submit through the same consistent-hash ring calibroctl
// uses (affinity by app@version; hostile bodies go to the first daemon).
// The reported counts then sum all daemons' counters.
//
// Exit status 0 when every submit was answered (even with 4xx), 1 on
// transport errors or when nothing was served.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "calibroload:", err)
		os.Exit(1)
	}
}

// event is one planned submit. The whole plan is generated up front from
// the seed, single-threaded, so the request mix is a pure function of
// the flags — replaying a seed replays the workload.
type event struct {
	at      time.Duration
	app     string
	version int
	hostile bool
}

type counters struct {
	mu       sync.Mutex
	served   int
	failed   int
	canceled int
	r413     int
	r429     int
	r503     int
	r400     int
	errs     int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("calibroload", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr         = fs.String("addr", "127.0.0.1:7723", "calibrod address")
		fleetList    = fs.String("fleet", "", "comma-separated calibrod addresses; submits route by consistent hash of app@version")
		seed         = fs.Int64("seed", 1, "workload seed; same seed, same request mix")
		n            = fs.Int("n", 60, "total submits to replay")
		rate         = fs.Float64("rate", 20, "mean arrival rate, submits/second (Poisson)")
		scale        = fs.Float64("scale", 0, "app scale sent with each job; 0 = server default")
		config       = fs.String("config", "ltbo", "ladder config for every job")
		updateEvery  = fs.Int("update-every", 16, "submits between app-update version bumps; 0 = no updates")
		delta        = fs.Float64("delta", 0.1, "fraction of methods changed per update")
		hostile      = fs.Float64("hostile", 0.1, "fraction of submits sent as oversized bodies")
		hostileBytes = fs.Int("hostile-bytes", 128<<10, "payload size of a hostile submit")
		timeout      = fs.Duration("timeout", 60*time.Second, "per-job client-side wait bound")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	// One daemon, or a consistent-hash fleet. The plan below is a pure
	// function of the seed either way, so the request mix — and with
	// deep-enough queues the served/413 split — is routing-independent.
	bases := []string{"http://" + *addr}
	var ring *fleet.Ring
	if *fleetList != "" {
		addrs := fleet.ParseList(*fleetList)
		ring = fleet.New(addrs, 0)
		bases = bases[:0]
		for _, a := range ring.Addrs() {
			bases = append(bases, "http://"+a)
		}
		if len(bases) == 0 {
			return fmt.Errorf("-fleet lists no addresses")
		}
	}

	// App roster: the six paper apps by Zipf popularity, the adversarial
	// obfuscated profile as the least popular tail entry.
	var apps []string
	for _, p := range workload.Apps(1) {
		apps = append(apps, p.Name)
	}
	apps = append(apps, "Obfuscated")

	plan := buildPlan(*seed, *n, *rate, apps, *updateEvery, *hostile)

	// baseFor routes one event: hostile bodies and the single-daemon case
	// go to the first base, everything else by app@version affinity.
	baseFor := func(ev event) string {
		if ring == nil || ev.hostile {
			return bases[0]
		}
		return "http://" + ring.Pick(fmt.Sprintf("%s@v%d", ev.app, ev.version))
	}

	before, beforeErr := scrapeCounts(bases)

	var (
		cnt      counters
		latency  obs.Histogram // client-observed submit -> terminal, µs
		queueWt  obs.Histogram // daemon-reported queue wait, µs
		wg       sync.WaitGroup
		sem      = make(chan struct{}, 64) // fd bound, far above any sane queue depth
		started  = time.Now()
		hostileB = bytes.Repeat([]byte{0xA5}, *hostileBytes)
	)
	for _, ev := range plan {
		wg.Add(1)
		go func(ev event) {
			defer wg.Done()
			// Open loop: fire at the scheduled offset regardless of how
			// many earlier requests are still in flight.
			time.Sleep(time.Until(started.Add(ev.at)))
			sem <- struct{}{}
			defer func() { <-sem }()
			replayOne(baseFor(ev), ev, *scale, *config, *delta, *timeout, hostileB,
				&cnt, &latency, &queueWt)
		}(ev)
	}
	wg.Wait()
	wall := time.Since(started)

	after, afterErr := scrapeCounts(bases)

	rejected := cnt.r413 + cnt.r429 + cnt.r503 + cnt.r400
	fmt.Fprintf(out, "calibroload: seed=%d n=%d wall=%s\n", *seed, *n, wall.Round(time.Millisecond))
	fmt.Fprintf(out, "calibroload: served=%d failed=%d canceled=%d rejected=%d (413=%d 429=%d 503=%d 400=%d) errors=%d\n",
		cnt.served, cnt.failed, cnt.canceled, rejected, cnt.r413, cnt.r429, cnt.r503, cnt.r400, cnt.errs)
	ls, qs := latency.Stats(), queueWt.Stats()
	fmt.Fprintf(out, "calibroload: latency_us p50=%d p95=%d p99=%d max=%d\n",
		ls.P50US, ls.P95US, ls.P99US, ls.MaxUS)
	fmt.Fprintf(out, "calibroload: queue_wait_us p50=%d p95=%d p99=%d max=%d\n",
		qs.P50US, qs.P95US, qs.P99US, qs.MaxUS)
	fmt.Fprintf(out, "calibroload: %s\n", cacheLine(before, after, errors.Join(beforeErr, afterErr)))

	if cnt.errs > 0 {
		return fmt.Errorf("%d submits hit transport errors", cnt.errs)
	}
	if cnt.served == 0 {
		return fmt.Errorf("no job was served")
	}
	return nil
}

// buildPlan derives the full request schedule from the seed. One
// sequential RNG draws everything, so the plan is deterministic and
// independent of replay timing.
func buildPlan(seed int64, n int, rate float64, apps []string, updateEvery int, hostileFrac float64) []event {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.3, 1.0, uint64(len(apps)-1))
	versions := make(map[string]int)
	plan := make([]event, 0, n)
	var at time.Duration
	for i := 0; i < n; i++ {
		// Poisson arrivals: exponential inter-arrival gaps at the mean
		// rate.
		at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		ev := event{at: at, hostile: r.Float64() < hostileFrac}
		if !ev.hostile {
			ev.app = apps[int(zipf.Uint64())]
			if updateEvery > 0 && i > 0 && i%updateEvery == 0 {
				// An app ships an update: its next submits compile the
				// new version (cold delta over a warm majority).
				versions[ev.app]++
			}
			ev.version = versions[ev.app]
		}
		plan = append(plan, ev)
	}
	return plan
}

// replayOne drives one planned submit to a terminal answer.
func replayOne(base string, ev event, scale float64, config string, delta float64,
	timeout time.Duration, hostileBody []byte,
	cnt *counters, latency, queueWt *obs.Histogram) {

	var body []byte
	if ev.hostile {
		req, _ := json.Marshal(map[string]any{"dex": hostileBody})
		body = req
	} else {
		req := map[string]any{"app": ev.app, "config": config}
		if scale > 0 {
			req["scale"] = scale
		}
		if ev.version > 0 {
			req["version"] = ev.version
			req["delta"] = delta
		}
		body, _ = json.Marshal(req)
	}

	start := time.Now()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		cnt.bump(func(c *counters) { c.errs++ })
		return
	}
	var st struct {
		ID          string `json:"id"`
		State       string `json:"state"`
		QueueWaitUS int64  `json:"queue_wait_us"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusRequestEntityTooLarge:
		cnt.bump(func(c *counters) { c.r413++ })
		return
	case http.StatusTooManyRequests:
		cnt.bump(func(c *counters) { c.r429++ })
		return
	case http.StatusServiceUnavailable:
		cnt.bump(func(c *counters) { c.r503++ })
		return
	case http.StatusBadRequest:
		cnt.bump(func(c *counters) { c.r400++ })
		return
	default:
		cnt.bump(func(c *counters) { c.errs++ })
		return
	}
	if decErr != nil {
		cnt.bump(func(c *counters) { c.errs++ })
		return
	}

	deadline := start.Add(timeout)
	for {
		wait := time.Until(deadline)
		if wait <= 0 {
			cnt.bump(func(c *counters) { c.errs++ })
			return
		}
		if wait > 5*time.Second {
			wait = 5 * time.Second
		}
		presp, err := http.Get(fmt.Sprintf("%s/jobs/%s?wait=%s", base, st.ID, wait.Round(time.Millisecond)))
		if err != nil {
			cnt.bump(func(c *counters) { c.errs++ })
			return
		}
		decErr = json.NewDecoder(presp.Body).Decode(&st)
		presp.Body.Close()
		if presp.StatusCode != http.StatusOK || decErr != nil {
			cnt.bump(func(c *counters) { c.errs++ })
			return
		}
		switch st.State {
		case "done":
			latency.Observe(time.Since(start).Microseconds())
			queueWt.Observe(st.QueueWaitUS)
			cnt.bump(func(c *counters) { c.served++ })
			return
		case "failed":
			cnt.bump(func(c *counters) { c.failed++ })
			return
		case "canceled":
			cnt.bump(func(c *counters) { c.canceled++ })
			return
		}
	}
}

func (c *counters) bump(f func(*counters)) {
	c.mu.Lock()
	f(c)
	c.mu.Unlock()
}

// cacheCounts are the cache counters a daemon's JSON /metrics reports:
// method-cache hits and misses, and fleet_hits, the jobs it served whole
// from a shared artifact without a method-cache lookup.
type cacheCounts struct {
	hits, misses, fleetHits int64
}

// scrapeCounts sums the cache counters across every daemon's JSON
// metrics endpoint, so the report is the fleet's. An uncached daemon
// contributes no method-cache lookups.
func scrapeCounts(bases []string) (cacheCounts, error) {
	var sum cacheCounts
	for _, base := range bases {
		c, err := scrapeCounts1(base)
		if err != nil {
			return cacheCounts{}, err
		}
		sum.hits += c.hits
		sum.misses += c.misses
		sum.fleetHits += c.fleetHits
	}
	return sum, nil
}

func scrapeCounts1(base string) (cacheCounts, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return cacheCounts{}, err
	}
	defer resp.Body.Close()
	var m struct {
		FleetHits int64 `json:"fleet_hits"`
		Cache     struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return cacheCounts{}, err
	}
	return cacheCounts{m.Cache.Hits, m.Cache.Misses, m.FleetHits}, nil
}

// cacheLine reports the run's method-cache hit rate and fleet artifact
// hits, the differences of two scrapes. The rate is n/a when the run made
// no method-cache lookup, and both are n/a when a scrape failed.
func cacheLine(before, after cacheCounts, err error) string {
	if err != nil {
		return "cache_hit_rate=n/a fleet_hits=n/a"
	}
	rate := "n/a"
	hits := after.hits - before.hits
	if lookups := hits + after.misses - before.misses; lookups > 0 {
		rate = fmt.Sprintf("%.3f", float64(hits)/float64(lookups))
	}
	return fmt.Sprintf("cache_hit_rate=%s fleet_hits=%d", rate, after.fleetHits-before.fleetHits)
}
