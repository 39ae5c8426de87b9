package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunRejectsBadInvocations: every bad flag, argument or value makes
// run return an error before any profile is printed.
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		msg  string // a fragment the error must carry
	}{
		{"unknown flag", []string{"-no-such-flag"}, "not defined"},
		{"positional argument", []string{"extra"}, "unexpected arguments"},
		{"unknown app", []string{"-app", "NoSuchApp"}, `unknown app "NoSuchApp"`},
		{"zero scale", []string{"-scale", "0"}, "must be positive"},
		{"negative scale", []string{"-scale", "-1"}, "must be positive"},
		{"NaN scale", []string{"-scale", "NaN"}, "must be positive"},
		{"unparseable scale", []string{"-scale", "big"}, "invalid value"},
		{"zero coverage", []string{"-coverage", "0"}, "must be in (0, 1]"},
		{"coverage above one", []string{"-coverage", "2"}, "must be in (0, 1]"},
		{"NaN coverage", []string{"-coverage", "NaN"}, "must be in (0, 1]"},
		{"negative top", []string{"-top", "-1"}, "must not be negative"},
		{"zero runs", []string{"-runs", "0"}, "must be positive"},
		{"negative period", []string{"-period", "-1"}, "must not be negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.msg)
			}
			if strings.Contains(out.String(), "samples over") {
				t.Errorf("run(%q) printed a profile: %q", tc.args, out.String())
			}
		})
	}
}

// profile runs simpleperf on a small app and returns its report.
func profile(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"-app", "Kuaishou", "-scale", "0.02", "-runs", "2"}, args...), &out); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return out.String()
}

var (
	hotRE = regexp.MustCompile(`top functions \(hot set: (\d+) methods cover (\d+)% of samples\)`)
	rowRE = regexp.MustCompile(`(?m)^LKuaishou/\S+ +\d+ +\S+% +\S+% +\*? *$`)
)

// hotSetSize reads the hot-set size from a report's table title.
func hotSetSize(t *testing.T, report string) int {
	t.Helper()
	m := hotRE.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no hot-set title in:\n%s", report)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRunReport drives the flags end to end: -top bounds the table,
// -coverage sets the title's share and can only grow the hot set as it
// rises, and -json writes the whole profile with the printed hot set.
func TestRunReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prof.json")
	report := profile(t, "-top", "3", "-json", path)
	for _, line := range []string{
		"Kuaishou: ",
		"cover 80% of samples",
		"generator planted ",
		"wrote profile " + path,
	} {
		if !strings.Contains(report, line) {
			t.Errorf("report lacks %q", line)
		}
	}
	if n := len(rowRE.FindAllString(report, -1)); n != 3 {
		t.Errorf("-top 3 printed %d rows:\n%s", n, report)
	}
	if n := len(rowRE.FindAllString(profile(t, "-top", "0"), -1)); n != 0 {
		t.Errorf("-top 0 printed %d rows", n)
	}
	if again := profile(t, "-top", "3", "-json", path); again != report {
		t.Error("two runs of the same profile differ")
	}

	narrow, wide := profile(t, "-coverage", "0.5"), profile(t, "-coverage", "1")
	if !strings.Contains(narrow, "cover 50% of samples") || !strings.Contains(wide, "cover 100% of samples") {
		t.Errorf("-coverage not reflected in the titles:\n%s\n%s", narrow, wide)
	}
	if n, w := hotSetSize(t, narrow), hotSetSize(t, wide); n < 1 || w < n {
		t.Errorf("hot set at coverage 0.5 holds %d methods, at 1 %d", n, w)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc profileJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("-json wrote an undecodable document: %v", err)
	}
	if doc.App != "Kuaishou" || doc.Coverage != 0.8 || len(doc.HotSet) != hotSetSize(t, report) {
		t.Errorf("-json document app %q coverage %v hot set %v; report:\n%s", doc.App, doc.Coverage, doc.HotSet, report)
	}
	var sum int64
	for _, f := range doc.Functions {
		sum += f.Samples
	}
	if len(doc.Functions) <= 3 || sum+doc.OtherSamples != doc.TotalSamples {
		t.Errorf("-json lists %d functions whose %d samples plus %d shared do not make the %d total",
			len(doc.Functions), sum, doc.OtherSamples, doc.TotalSamples)
	}
}
