package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/dex"
	"repro/internal/workload"
)

// cliDigests is the digest golden cmd/calibro's TestRequestDigestGolden
// pins from the CLI's -o images, and cliTextApp the assembly-text input it
// builds with -i.
const (
	cliDigests = "../../cmd/calibro/testdata/request_digests.golden"
	cliTextApp = "../../cmd/calibro/testdata/textapp.s"
)

// TestRequestDigestsMatchCLI submits every request the CLI digest golden
// covers to an in-process daemon and requires the same image bytes: the
// five ladder configurations on a generated app, both dex payload
// formats, and a debloat job rooted at method 0 followed by a reoutline
// job (the CLI's -debloat -roots 0 -reoutline).
func TestRequestDigestsMatchCLI(t *testing.T) {
	f, err := os.Open(cliDigests)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = sum
		names = append(names, name)
	}
	f.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	prof, ok := workload.AppByName("Taobao", 0.05)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	container, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(cliTextApp)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	build := func(req JobRequest) []byte {
		t.Helper()
		resp, st := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s %s: status %d: %s", req.Kind, req.Config, resp.StatusCode, st.Error)
		}
		if final := waitTerminal(t, ts, st.ID); final.State != StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, final.State, final.Error)
		}
		return fetchImage(t, ts, st.ID)
	}
	got := map[string][]byte{}
	for _, config := range []string{"baseline", "cto", "ltbo", "plopti", "hfopti"} {
		got["app-"+config] = build(JobRequest{App: "Taobao", Scale: 0.05, Config: config})
	}
	got["dex-container"] = build(JobRequest{Dex: container, Config: "hfopti"})
	got["asm-text"] = build(JobRequest{Dex: text, Config: "hfopti", Trees: 1})
	debloated := build(JobRequest{Kind: KindDebloat, Oat: got["app-cto"], Roots: []uint32{0}})
	got["debloat-reoutline"] = build(JobRequest{Kind: KindReoutline, Oat: debloated})

	if len(names) != len(got) {
		t.Errorf("golden names %d requests, the daemon ran %d", len(names), len(got))
	}
	for _, name := range names {
		img, ok := got[name]
		if !ok {
			t.Errorf("%s: no daemon request covers this golden entry", name)
			continue
		}
		sum := sha256.Sum256(img)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s: daemon image sha256 %s, CLI golden %s", name, h, want[name])
		}
	}
}
