package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dex"
)

// TestRunRejectsBadInvocations: every bad flag, argument, value or output
// path makes run return an error, and no write is reported.
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
		{"negative dump", []string{"-dump", "-1"}, "must not be negative"},
		{"methods at the driver count", []string{"-methods", "3"}, "must exceed the 3 driver methods"},
		{"negative methods", []string{"-methods", "-40"}, "must exceed the 3 driver methods"},
		{"unwritable output", []string{"-scale", "0.02", "-o", t.TempDir()}, "is a directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.msg)
			}
			if strings.Contains(out.String(), "wrote ") {
				t.Errorf("run(%q) claimed a write: %q", tc.args, out.String())
			}
		})
	}
}

// gen runs appgen on a small app and returns its report.
func gen(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(append([]string{"-app", "Meituan", "-scale", "0.02"}, args...), &out); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return out.String()
}

var (
	statsRE  = regexp.MustCompile(`(?m)^Meituan: (\d+) methods \(\d+ native\), \d+ classes, \d+ dex instructions$`)
	methodRE = regexp.MustCompile(`(?m)^method m\d+ \S+ \(regs=\d+ ins=\d+ native=(true|false)\):$`)
)

// TestRunReport drives the flags end to end: the statistics and density
// lines are printed, -dump bounds the method bodies shown, -methods and
// -seed override the profile, -text prints the text format, and -o
// writes a container that decodes to the same app.
func TestRunReport(t *testing.T) {
	report := gen(t, "-dump", "2")
	for _, line := range []string{
		"drivers: ",
		"compiled: ",
		"pattern densities per method: java-call ",
		"(paper WeChat: 5.78, 0.99, 1.25)",
	} {
		if !strings.Contains(report, line) {
			t.Errorf("report lacks %q", line)
		}
	}
	if n := len(methodRE.FindAllString(report, -1)); n != 2 {
		t.Errorf("-dump 2 printed %d method bodies", n)
	}
	if n := len(methodRE.FindAllString(gen(t), -1)); n != 0 {
		t.Errorf("-dump 0 printed %d method bodies", n)
	}
	if again := gen(t, "-dump", "2"); again != report {
		t.Error("two runs of the same generation differ")
	}

	for _, n := range []int{4, 40, 80} {
		if got := methodCount(t, gen(t, "-methods", strconv.Itoa(n))); got != n {
			t.Errorf("-methods %d generated %d methods", n, got)
		}
	}
	if gen(t, "-seed", "7") == gen(t) {
		t.Error("-seed 7 generated the profile's default app")
	}
	if text := gen(t, "-text"); !strings.Contains(text, ".app Meituan\n") {
		t.Error("-text printed no .app directive")
	}

	path := filepath.Join(t.TempDir(), "app.dex")
	if !strings.Contains(gen(t, "-o", path), "wrote "+path+" (") {
		t.Errorf("-o %s: no wrote line", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	app, err := dex.UnmarshalApp(data)
	if err != nil {
		t.Fatalf("-o wrote an undecodable container: %v", err)
	}
	if want := methodCount(t, report); len(app.Methods) != want {
		t.Errorf("-o container holds %d methods, the report says %d", len(app.Methods), want)
	}
}

// methodCount reads the method count from a report's statistics line.
func methodCount(t *testing.T, report string) int {
	t.Helper()
	m := statsRE.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("no statistics line in:\n%s", report)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}
