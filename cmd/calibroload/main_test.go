package main

import (
	"bytes"
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
func quick(addr string, n int, extra ...string) []string {
	return append([]string{"-addr", addr, "-n", fmt.Sprint(n), "-rate", "1000", "-hostile", "0"}, extra...)
}

// TestRunServed replays against a daemon that serves everything: every
// submit is counted served, and -bench prints the benchjson line.
func TestRunServed(t *testing.T) {
	addr, submits := stubDaemon(t, http.StatusAccepted)
	var out bytes.Buffer
	if err := run(quick(addr, 5, "-bench"), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if submits.Load() != 5 {
		t.Errorf("daemon saw %d submits, want 5", submits.Load())
	}
	for _, want := range []string{
		"served=5 failed=0 canceled=0 rejected=0",
		"cache_hit_rate=1.000",
		"BenchmarkServeReplay/apps=7/rate=1000 5 ",
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
