package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// stubDaemon answers like calibrod: every submit gets status (202 queues a
// job that the first poll reports done), and /metrics reports a cache
// whose hit count grows by one per poll.
func stubDaemon(t *testing.T, status int) (addr string, submits *atomic.Int64) {
	t.Helper()
	submits = &atomic.Int64{}
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		n := submits.Add(1)
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"id":"j%d","state":"queued"}`, n)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintf(w, `{"id":%q,"state":"done","queue_wait_us":7}`, r.PathValue("id"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"cache":{"hits":%d,"misses":0}}`, hits.Load())
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), submits
}

// quick makes a replay of n submits that fires within milliseconds.
func quick(addr string, n int) []string {
	return []string{"-addr", addr, "-n", fmt.Sprint(n), "-rate", "1000", "-hostile", "0"}
}

// TestRunServed replays against a daemon that serves everything: every
// submit is counted served.
func TestRunServed(t *testing.T) {
	addr, submits := stubDaemon(t, http.StatusAccepted)
	var out bytes.Buffer
	if err := run(quick(addr, 5), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if submits.Load() != 5 {
		t.Errorf("daemon saw %d submits, want 5", submits.Load())
	}
	for _, want := range []string{
		"served=5 failed=0 canceled=0 rejected=0",
		"cache_hit_rate=1.000",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunErrors covers the refusals: bad flags, stray arguments, an empty
// fleet, a daemon that rejects every submit, and one that is not there.
func TestRunErrors(t *testing.T) {
	rejecting, _ := stubDaemon(t, http.StatusBadRequest)
	gone := httptest.NewServer(http.NotFoundHandler())
	goneAddr := strings.TrimPrefix(gone.URL, "http://")
	gone.Close()
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"stray argument", []string{"extra"}, "unexpected arguments"},
		{"empty fleet", []string{"-fleet", " , "}, "-fleet lists no addresses"},
		{"all rejected", quick(rejecting, 3), "no job was served"},
		{"daemon down", quick(goneAddr, 3), "3 submits hit transport errors"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q\n%s", err, c.want, out.String())
			}
			if c.name == "all rejected" && !strings.Contains(out.String(), "rejected=3 (413=0 429=0 503=0 400=3)") {
				t.Errorf("rejections not counted:\n%s", out.String())
			}
		})
	}
}

// TestCacheLine scrapes canned /metrics bodies from a two-daemon fleet,
// before and after a run, and checks the reported cache line: a fleet
// that served every job from shared artifacts reads as warm (rate n/a,
// fleet hits summed across daemons), not as a 0.000 hit rate.
func TestCacheLine(t *testing.T) {
	// daemon serves its canned bodies in order, one per scrape.
	daemon := func(bodies ...string) string {
		var n atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, bodies[n.Add(1)-1])
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	for _, c := range []struct {
		name string
		a, b [2]string // each daemon's body before and after the run
		want string
	}{
		{"warm fleet",
			[2]string{`{"fleet_hits":1,"cache":{"hits":4,"misses":2}}`, `{"fleet_hits":11,"cache":{"hits":4,"misses":2}}`},
			[2]string{`{"fleet_hits":0,"cache":{"hits":0,"misses":0}}`, `{"fleet_hits":15,"cache":{"hits":0,"misses":0}}`},
			"cache_hit_rate=n/a fleet_hits=25"},
		{"method cache",
			[2]string{`{"cache":{"hits":4,"misses":2}}`, `{"cache":{"hits":10,"misses":3}}`},
			[2]string{`{"cache":{"hits":0,"misses":0}}`, `{"cache":{"hits":3,"misses":1}}`},
			"cache_hit_rate=0.818 fleet_hits=0"},
		{"uncached",
			[2]string{`{"fleet_hits":0}`, `{"fleet_hits":0}`},
			[2]string{`{"fleet_hits":0}`, `{"fleet_hits":2}`},
			"cache_hit_rate=n/a fleet_hits=2"},
		{"bad body",
			[2]string{`{}`, `not json`},
			[2]string{`{}`, `{}`},
			"cache_hit_rate=n/a fleet_hits=n/a"},
	} {
		t.Run(c.name, func(t *testing.T) {
			bases := []string{daemon(c.a[:]...), daemon(c.b[:]...)}
			before, err1 := scrapeCounts(bases)
			after, err2 := scrapeCounts(bases)
			if got := cacheLine(before, after, errors.Join(err1, err2)); got != c.want {
				t.Errorf("cacheLine = %q, want %q", got, c.want)
			}
		})
	}
}
