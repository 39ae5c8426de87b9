package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	calibro "repro"
	"repro/internal/a64"
)

// lintTestSrc is a small two-method app in the smali-like text format;
// enough to produce calls, branches, and CTO thunks.
const lintTestSrc = `
.app Lint
.file classes.dex
.class LMain
.method helper regs=3 ins=2
    add v0, v1, v2
    return v0
.end method
.method run regs=4 ins=1
    const v0, 5
    invoke v1, LMain.helper (v3, v0)
    if-lt v0, v3, :big
    return v1
  :big
    add v1, v1, v0
    return v1
.end method
.end class
.end file
`

// writeTestImage assembles, builds, and marshals the test app.
func writeTestImage(t *testing.T, corrupt bool) string {
	t.Helper()
	app, err := calibro.Assemble(lintTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := calibro.Build(app, calibro.CTOOnly())
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		// Break the first method's prologue word: decodes nowhere.
		res.Image.Text[res.Image.Methods[0].Offset/a64.WordSize] = 0xFFFF_FFFF
	}
	data, err := calibro.MarshalImage(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "app.oat")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintCleanImage(t *testing.T) {
	path := writeTestImage(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on a clean image; output:\n%s%s", code, out.String(), errOut.String())
	}
	if got := out.String(); got != "oatlint: image is clean\n" {
		t.Errorf("output %q", got)
	}
}

func TestLintCorruptImage(t *testing.T) {
	path := writeTestImage(t, true)
	var out, errOut bytes.Buffer
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on a corrupted image, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "[decode]") || !strings.Contains(out.String(), "m0+0") {
		t.Errorf("findings do not name the method and offset:\n%s", out.String())
	}
}

func TestLintVerbose(t *testing.T) {
	path := writeTestImage(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{"-v", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "2 methods") ||
		!strings.Contains(out.String(), "outlined functions") {
		t.Errorf("verbose summary missing:\n%s", out.String())
	}
}

func TestLintRuleFilter(t *testing.T) {
	path := writeTestImage(t, true)
	var out, errOut bytes.Buffer
	run([]string{"-rule", "sp-balance", path}, &out, &errOut)
	if strings.Contains(out.String(), "[decode]") {
		t.Errorf("-rule filter leaked other rules:\n%s", out.String())
	}
}

func TestLintUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.oat")}, &out, &errOut); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.oat")
	if err := os.WriteFile(bad, []byte("not an oat image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &out, &errOut); code != 2 {
		t.Errorf("unparsable file: exit %d, want 2", code)
	}
}

var update = flag.Bool("update", false, "regenerate golden files")

// TestLintJSONGolden pins the -json wire format byte for byte on a
// corrupted image. Regenerate with -update on an intentional change.
func TestLintJSONGolden(t *testing.T) {
	path := writeTestImage(t, true)
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on a corrupted image, want 1; stderr: %s", code, errOut.String())
	}
	var parsed []struct {
		Rule     string `json:"rule"`
		Severity string `json:"severity"`
		Method   int    `json:"method"`
		PC       int    `json:"pc"`
		Msg      string `json:"msg"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(parsed) == 0 {
		t.Fatal("corrupted image produced no JSON findings")
	}
	for _, f := range parsed {
		if f.Rule == "" || f.Severity == "" {
			t.Errorf("finding missing rule or severity: %+v", f)
		}
	}
	golden := filepath.Join("testdata", "findings_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output drifted from golden file (regenerate with -update)\ngot:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestLintJSONClean: a clean image yields an empty-but-valid JSON array
// and exit 0.
func TestLintJSONClean(t *testing.T) {
	path := writeTestImage(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on a clean image; stderr: %s", code, errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output %q, want []", got)
	}
}

// TestLintReportModes exercises -callgraph and -reach on a clean image.
func TestLintReportModes(t *testing.T) {
	path := writeTestImage(t, false)
	var out, errOut bytes.Buffer
	if code := run([]string{"-callgraph", "-reach", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "callgraph:") {
		t.Errorf("-callgraph printed no call-graph header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "reachability:") {
		t.Errorf("-reach printed no reachability header:\n%s", out.String())
	}
}

// TestLintRulesFlag drives the rule engine from the CLI: rooting
// reachability at the leaf method makes the entry method unreachable, and
// regrading the rule to error turns that into a failing exit.
func TestLintRulesFlag(t *testing.T) {
	path := writeTestImage(t, false)

	// helper is m0, run is m1; rooted at m1 everything is live.
	var out, errOut bytes.Buffer
	if code := run([]string{"-rules", "interproc", "-roots", "1", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d with all-live roots; output:\n%s%s", code, out.String(), errOut.String())
	}

	// Rooted at m0 only, m1 is unreachable; regraded to error it blocks.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-rules", "unreachable-method=error", "-roots", "0", path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[unreachable-method]") || !strings.Contains(out.String(), "m1") {
		t.Errorf("unreachable finding missing or misattributed:\n%s", out.String())
	}

	// A root outside the method table is a usage error, not a root that
	// drops silently and leaves every method unreachable.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-rules", "interproc", "-roots", "99999", path}, &out, &errOut); code != 2 ||
		!strings.Contains(errOut.String(), "root m99999 is outside the method table") {
		t.Errorf("exit %d on -roots 99999, want 2; output:\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-roots", "1,,0", path}, &out, &errOut); code != 2 ||
		!strings.Contains(errOut.String(), "empty entry") {
		t.Errorf("exit %d on -roots 1,,0, want 2; output:\n%s%s", code, out.String(), errOut.String())
	}

	// A typo in the spec is a usage error, not a silently weaker lint.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-rules", "bogus-rule", path}, &out, &errOut); code != 2 {
		t.Errorf("exit %d on a bad -rules spec, want 2", code)
	}
}

// TestLintPairedOrig drives the paired equivalence rules from the CLI: a
// re-outlined image checked with -orig against its input must come out
// clean, and a tampered re-outlined image must be caught by the
// reoutlined-body-equivalent rule.
func TestLintPairedOrig(t *testing.T) {
	app, err := calibro.Assemble(lintTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := calibro.Build(app, calibro.CTOOnly())
	if err != nil {
		t.Fatal(err)
	}
	reout, _, err := calibro.ReoutlineImage(res.Image, calibro.ReoutlineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, img *calibro.Image) string {
		data, err := calibro.MarshalImage(img)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	origPath := write("orig.oat", res.Image)
	reoutPath := write("reout.oat", reout)

	var out, errOut bytes.Buffer
	if code := run([]string{"-orig", origPath, reoutPath}, &out, &errOut); code != 0 {
		t.Fatalf("paired lint of a sound reoutline: exit %d; output:\n%s%s", code, out.String(), errOut.String())
	}

	// Swap two instruction words inside the first method: still a valid
	// image by the unpaired rules' lights is too much to ask, but the
	// paired replay must flag the divergence from the original either way.
	bad := &calibro.Image{
		Text:    append([]uint32(nil), reout.Text...),
		Methods: reout.Methods, Thunks: reout.Thunks, Outlined: reout.Outlined,
	}
	w := bad.Methods[0].Offset / 4
	bad.Text[w+1], bad.Text[w+2] = bad.Text[w+2], bad.Text[w+1]
	badPath := write("bad.oat", bad)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-orig", origPath, badPath}, &out, &errOut); code != 1 {
		t.Fatalf("paired lint of a tampered reoutline: exit %d, want 1; output:\n%s%s", code, out.String(), errOut.String())
	}
}
