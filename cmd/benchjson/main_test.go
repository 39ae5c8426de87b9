package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
BenchmarkMarshal-2   	    3457	    299869 ns/op	1841.28 MB/s	  557155 B/op	       5 allocs/op
BenchmarkAnalyze/Toutiao-2 	 100	 1500.5 ns/op
PASS
`

func readDoc(t *testing.T, path string) document {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRunOverwrite parses result lines with their extra metrics, echoes
// every input line unchanged, and writes one flat document.
func TestRunOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out bytes.Buffer
	if err := run([]string{"-o", path}, strings.NewReader(benchOutput), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != benchOutput {
		t.Errorf("echo changed the input:\n%s", out.String())
	}
	doc := readDoc(t, path)
	if len(doc.Runs) != 0 || len(doc.Results) != 2 {
		t.Fatalf("document: %d runs, %d results; want 0 and 2", len(doc.Runs), len(doc.Results))
	}
	r := doc.Results[0]
	if r.Name != "BenchmarkMarshal-2" || r.Iterations != 3457 || r.NsPerOp != 299869 ||
		r.Metrics["allocs/op"] != 5 || r.Metrics["MB/s"] != 1841.28 {
		t.Errorf("first result = %+v", r)
	}
	if doc.Results[1].Metrics != nil {
		t.Errorf("second result has metrics %v, want none", doc.Results[1].Metrics)
	}
}

// TestRunAppend migrates a flat archive into the first run of a history
// and adds one run with host metadata and the note per invocation.
func TestRunAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.json")
	if err := run([]string{"-o", path}, strings.NewReader(benchOutput), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := run([]string{"-append", "-note", "n", "-o", path}, strings.NewReader(benchOutput), &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	doc := readDoc(t, path)
	if len(doc.Results) != 0 || len(doc.Runs) != 3 {
		t.Fatalf("history: %d flat results, %d runs; want 0 and 3", len(doc.Results), len(doc.Runs))
	}
	if !strings.HasPrefix(doc.Runs[0].Note, "migrated") || doc.Runs[0].Time != "" {
		t.Errorf("first run %+v is not the migrated flat archive", doc.Runs[0])
	}
	for _, r := range doc.Runs[1:] {
		if r.Note != "n" || r.Time == "" || r.HostCPUs == 0 || r.GoVersion == "" || len(r.Results) != 2 {
			t.Errorf("appended run %+v lacks its note, metadata or results", r)
		}
	}
}

// TestRunErrors covers every refusal: bad flags, stray arguments, input
// without results, an archive that is not benchjson's (left untouched),
// and an unwritable output path.
func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(foreign, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		args  []string
		input string
		want  string
	}{
		{"unknown flag", []string{"-bogus"}, benchOutput, "flag provided but not defined"},
		{"stray argument", []string{"-o", filepath.Join(dir, "x.json"), "extra"}, benchOutput, "unexpected arguments"},
		{"no results", []string{"-o", filepath.Join(dir, "y.json")}, "PASS\n", "no benchmark results"},
		{"foreign archive", []string{"-append", "-o", foreign}, benchOutput, "not a benchjson document"},
		{"unwritable output", []string{"-o", filepath.Join(dir, "missing", "z.json")}, benchOutput, "no such file"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args, strings.NewReader(c.input), &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
	if data, _ := os.ReadFile(foreign); string(data) != "not json" {
		t.Errorf("foreign archive clobbered: %q", data)
	}
	for _, name := range []string{"x.json", "y.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			t.Errorf("%s written by a refused run", name)
		}
	}
}
