package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// runCtl runs the client with args and returns its exit status, stdout
// and stderr.
func runCtl(args ...string) (int, string, string) {
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestUnknownCommand(t *testing.T) {
	code, _, errOut := runCtl("frobnicate")
	if code != 2 || !strings.Contains(errOut, `unknown command "frobnicate"`) {
		t.Errorf("exit %d, stderr %q; want 2 and the unknown command", code, errOut)
	}
}

func TestMissingJobOperand(t *testing.T) {
	for _, cmd := range []string{"wait", "status", "stats", "fetch", "lint", "trace", "cancel"} {
		code, _, errOut := runCtl(cmd)
		if code != 2 || !strings.Contains(errOut, cmd+": job ID required") {
			t.Errorf("%s: exit %d, stderr %q; want 2 and job ID required", cmd, code, errOut)
		}
		code, _, errOut = runCtl(cmd, "-poll", "1s")
		if code != 2 || !strings.Contains(errOut, "job ID required") {
			t.Errorf("%s -poll: exit %d, stderr %q; want 2 and job ID required", cmd, code, errOut)
		}
	}
}

// TestSubmitBadRoots: a malformed -roots entry fails before any request
// is sent (the -addr here has nothing listening).
func TestSubmitBadRoots(t *testing.T) {
	img := filepath.Join(t.TempDir(), "app.oat")
	if err := os.WriteFile(img, []byte("not an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCtl("-addr", "127.0.0.1:1", "submit", "-kind", "debloat", "-oat", img, "-roots", "0,one")
	if code != 2 || !strings.Contains(errOut, "parsing -roots") || out != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2 and a -roots parse error", code, out, errOut)
	}
}

// TestSubmitShardsUnknown: the removed -shards knob is an unknown flag,
// refused before any request is sent.
func TestSubmitShardsUnknown(t *testing.T) {
	code, out, errOut := runCtl("-addr", "127.0.0.1:1", "submit", "-app", "Taobao", "-shards", "2")
	if code != 2 || !strings.Contains(errOut, "flag provided but not defined: -shards") || out != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2 and an unknown -shards flag", code, out, errOut)
	}
}

// TestSubmitForwardsNegativeCounts: a negative count flag reaches the
// daemon as given and its validation refuses the job with 400, instead of
// the client dropping the flag and the daemon building with its default.
func TestSubmitForwardsNegativeCounts(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	addr := strings.TrimPrefix(ts.URL, "http://")
	for _, flag := range []string{"-trees", "-rounds", "-runs", "-scale"} {
		code, out, errOut := runCtl("-addr", addr, "submit", "-app", "Taobao", flag, "-1")
		if code == 0 || out != "" || !strings.Contains(errOut, "400") || !strings.Contains(errOut, "must not be negative") {
			t.Errorf("submit %s -1: exit %d, stdout %q, stderr %q; want a 400 refusal", flag, code, out, errOut)
		}
	}
}

// TestJobOperandAddress: an ID@ADDR operand goes to the daemon it names,
// not to -addr, with the bare ID in the path.
func TestJobOperandAddress(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.Method+" "+r.URL.Path)
		mu.Unlock()
		w.Write([]byte(`{"id":"j7","state":"done"}`))
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	for _, args := range [][]string{
		{"status", "j7@" + addr},
		{"stats", "j7@" + addr},
		{"cancel", "j7@" + addr},
		{"wait", "j7@" + addr},
	} {
		code, out, errOut := runCtl(append([]string{"-addr", "127.0.0.1:1"}, args...)...)
		if code != 0 || !strings.Contains(out, "j7") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, out, errOut)
		}
	}
	want := []string{"GET /jobs/j7", "GET /jobs/j7/stats", "DELETE /jobs/j7", "GET /jobs/j7"}
	mu.Lock()
	defer mu.Unlock()
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Errorf("daemon saw %q, want %q", paths, want)
	}
}

// TestSubmitPrintsJobID: a submit to a live daemon prints the bare job ID
// the daemon assigned, and that ID polls to a finished build.
func TestSubmitPrintsJobID(t *testing.T) {
	s := serve.New(serve.Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	addr := strings.TrimPrefix(ts.URL, "http://")

	code, out, errOut := runCtl("-addr", addr, "submit", "-app", "Taobao", "-scale", "0.05", "-config", "cto")
	if code != 0 {
		t.Fatalf("submit: exit %d, stderr %q", code, errOut)
	}
	id := strings.TrimSpace(out)
	if id == "" || strings.ContainsAny(id, " \n@") {
		t.Fatalf("submit printed %q, want one bare job ID", out)
	}
	code, out, errOut = runCtl("-addr", addr, "wait", id)
	if code != 0 || !strings.Contains(out, `"state": "done"`) {
		t.Errorf("wait %s: exit %d, stdout %q, stderr %q", id, code, out, errOut)
	}
}
