package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/workload"
)

func TestRunUnknownApp(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-app", "NotAnApp"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown app "NotAnApp"`) {
		t.Fatalf("err = %v, want unknown app", err)
	}
}

func TestRunUnknownConfig(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-app", "Taobao", "-scale", "0.05", "-config", "turbo"}, &buf)
	if err == nil || !strings.Contains(err.Error(), `unknown config "turbo"`) {
		t.Fatalf("err = %v, want unknown config", err)
	}
}

// TestRunRefusesNegativeCounts: a negative tree count, run count or
// scale ends in an error before anything is built, not in a
// panic, an empty outline or a full-scale app.
func TestRunRefusesNegativeCounts(t *testing.T) {
	for _, flagName := range []string{"-trees", "-runs", "-scale"} {
		err := run([]string{"-app", "Taobao", "-scale", "0.02", flagName, "-1"}, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("%s -1: err = %v, want a negative-value refusal", flagName, err)
		}
	}
}

// TestRunRemovedFlagsUnknown: the removed -shards and -rounds knobs are
// unknown flags.
func TestRunRemovedFlagsUnknown(t *testing.T) {
	for _, name := range []string{"-shards", "-rounds"} {
		err := run([]string{"-app", "Taobao", name, "2"}, &strings.Builder{})
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s 2: err = %v, want a usage error naming %s", name, err, name)
		}
	}
}

// TestRunConfigResolvedFirst: the build path rejects an unknown -config
// before it touches -i, as calibrod rejects one before queueing; -debloat
// ignores -config.
func TestRunConfigResolvedFirst(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.dex")
	err := run([]string{"-i", missing, "-config", "turbo"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), `unknown config "turbo"`) {
		t.Errorf("-i missing -config turbo: err = %v, want unknown config", err)
	}
	err = run([]string{"-debloat", missing, "-config", "turbo"}, &strings.Builder{})
	if err == nil || !os.IsNotExist(err) {
		t.Errorf("-debloat missing -config turbo: err = %v, want the missing file", err)
	}
}

func TestRunBadInputFile(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-i", filepath.Join(t.TempDir(), "nope.dex")}, &buf)
	if err == nil {
		t.Fatal("missing input file did not error")
	}
}

// TestRunHappyPath builds a marshaled container through the full CLI flow
// and checks the report lines land on the provided writer.
func TestRunHappyPath(t *testing.T) {
	prof, ok := workload.AppByName("Taobao", 0.05)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "app.dex")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "app.oat")
	var buf strings.Builder
	if err := run([]string{"-i", in, "-config", "cto", "-o", out}, &buf); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	got := buf.String()
	for _, want := range []string{"app Taobao:", "config cto:", "wrote " + out} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("image file not written: %v", err)
	}
}

// TestRunDebloat drives the -debloat path end to end: build an image
// through the normal CLI flow, then debloat it rooted at the first
// activity and check the smaller image parses and reports removal.
func TestRunDebloat(t *testing.T) {
	prof, ok := workload.AppByName("Taobao", 0.05)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "app.dex")
	if err := os.WriteFile(in, data, 0o644); err != nil {
		t.Fatal(err)
	}
	full := filepath.Join(dir, "full.oat")
	var buf strings.Builder
	if err := run([]string{"-i", in, "-config", "ltbo", "-o", full}, &buf); err != nil {
		t.Fatalf("build: %v\noutput:\n%s", err, buf.String())
	}

	small := filepath.Join(dir, "small.oat")
	buf.Reset()
	if err := run([]string{"-debloat", full, "-roots", "0", "-o", small}, &buf); err != nil {
		t.Fatalf("debloat: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "debloat: text") || !strings.Contains(buf.String(), "removed:") {
		t.Errorf("debloat report missing:\n%s", buf.String())
	}
	fullData, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	smallData, err := os.ReadFile(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(smallData) > len(fullData) {
		t.Errorf("debloated image grew on disk: %d -> %d bytes", len(fullData), len(smallData))
	}
	if _, err := oat.Unmarshal(smallData); err != nil {
		t.Errorf("debloated image does not parse: %v", err)
	}

	// A malformed -roots entry is an error, not a silent default.
	if err := run([]string{"-debloat", full, "-roots", "zero"}, &strings.Builder{}); err == nil {
		t.Error("bad -roots entry did not error")
	}
}

var update = flag.Bool("update", false, "rewrite the golden file")

// digestGolden pins the SHA-256 of the -o image of every request shape
// the CLI and calibrod both accept. internal/serve's
// TestRequestDigestsMatchCLI submits the same requests to an in-process
// daemon and checks them against this file.
const digestGolden = "testdata/request_digests.golden"

// TestRequestDigestGolden runs every ladder configuration on a generated
// app, both -i input formats, and -debloat composed with -reoutline, and
// pins the written images' digests.
func TestRequestDigestGolden(t *testing.T) {
	dir := t.TempDir()
	prof, ok := workload.AppByName("Taobao", 0.05)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dex.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	dexPath := filepath.Join(dir, "app.dex")
	if err := os.WriteFile(dexPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	type digestCase struct {
		name string
		args []string
	}
	var cases []digestCase
	for _, config := range []string{"baseline", "cto", "ltbo", "plopti", "hfopti"} {
		cases = append(cases, digestCase{"app-" + config, []string{"-app", "Taobao", "-scale", "0.05", "-config", config}})
	}
	cases = append(cases,
		// hfopti profiles the script over the leading-methods drivers, so
		// these two also pin that convention.
		digestCase{"dex-container", []string{"-i", dexPath, "-config", "hfopti"}},
		digestCase{"asm-text", []string{"-i", "testdata/textapp.s", "-config", "hfopti", "-trees", "1"}},
		// Runs after app-cto, whose image it rewrites.
		digestCase{"debloat-reoutline", []string{"-debloat", filepath.Join(dir, "app-cto.oat"), "-roots", "0", "-reoutline"}},
	)
	var got bytes.Buffer
	for _, c := range cases {
		outPath := filepath.Join(dir, c.name+".oat")
		var buf strings.Builder
		if err := run(append(c.args, "-o", outPath), &buf); err != nil {
			t.Fatalf("%s: %v\noutput:\n%s", c.name, err, buf.String())
		}
		img, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(img)
		fmt.Fprintf(&got, "%s %s\n", c.name, hex.EncodeToString(sum[:]))
	}

	if *update {
		if err := os.WriteFile(digestGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("image digests drifted from %s:\ngot:\n%s\nwant:\n%s", digestGolden, got.Bytes(), want)
	}
}

// TestRunEmptyInput: an empty or blank -i file holds no methods, and every
// configuration refuses it with the same message before building.
func TestRunEmptyInput(t *testing.T) {
	dir := t.TempDir()
	for _, body := range []string{"", " \n\t\n"} {
		in := filepath.Join(dir, "empty.s")
		if err := os.WriteFile(in, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []string{"baseline", "cto", "ltbo", "plopti", "hfopti"} {
			out := filepath.Join(dir, cfg+".oat")
			err := run([]string{"-i", in, "-config", cfg, "-o", out}, &strings.Builder{})
			if err == nil || !strings.Contains(err.Error(), "workload: app has no methods") {
				t.Errorf("-i %q -config %s: err = %v, want the no-methods refusal", body, cfg, err)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("-config %s wrote %s for an empty app", cfg, out)
			}
		}
	}
}
