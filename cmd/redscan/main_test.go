package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunRejectsBadInvocations: every bad flag, argument or value makes
// run return an error before any analysis is printed.
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
		{"negative top", []string{"-top", "-1"}, "must not be negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.msg)
			}
			if strings.Contains(out.String(), "instruction words") {
				t.Errorf("run(%q) printed a report: %q", tc.args, out.String())
			}
		})
	}
}

// scan runs redscan on a small app and returns its report.
func scan(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"-app", "Wechat", "-scale", "0.02"}, args...), &out); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return out.String()
}

var (
	savedRE = regexp.MustCompile(`estimated reduction ratio \(Table 1 model\): \S+ \((\d+) words\)`)
	topRE   = regexp.MustCompile(`(?m)^  #\d+: length \d+, \d+ occurrences$`)
)

// savedWords reads the Table 1 estimate's word count from a report.
func savedWords(t *testing.T, report string) int {
	t.Helper()
	m := savedRE.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no reduction estimate in:\n%s", report)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRunReport drives the flags end to end: every section is printed,
// -top bounds the disassembled repeats, and -bounded (the outliner's
// legality constraints) can only lower the estimate.
func TestRunReport(t *testing.T) {
	report := scan(t, "-top", "2")
	for _, section := range []string{
		"Wechat: ",
		"sequence length vs number of repeats (Figure 3):",
		"ART-specific pattern sites (Figure 4):",
		"top repeated sequences:",
	} {
		if !strings.Contains(report, section) {
			t.Errorf("report lacks %q", section)
		}
	}
	if n := len(topRE.FindAllString(report, -1)); n != 2 {
		t.Errorf("-top 2 printed %d repeats", n)
	}
	if n := len(topRE.FindAllString(scan(t, "-top", "0"), -1)); n != 0 {
		t.Errorf("-top 0 printed %d repeats", n)
	}
	free, bounded := savedWords(t, report), savedWords(t, scan(t, "-bounded"))
	if bounded <= 0 || bounded > free {
		t.Errorf("-bounded estimate %d words, unbounded %d: want 0 < bounded <= unbounded", bounded, free)
	}
	if again := scan(t, "-top", "2"); again != report {
		t.Error("two runs of the same scan differ")
	}
}
