// Command benchjson converts `go test -bench` output on stdin into a JSON
// document, so benchmark results can be archived and diffed across
// commits. Every input line is echoed to stdout unchanged — the command
// sits transparently at the end of a pipe — and the parsed results are
// written to the -o file (default benchmarks.json).
//
// Usage:
//
//	go test -bench=. . | benchjson -o BENCH.json            # overwrite
//	go test -bench=. . | benchjson -append -o BENCH.json    # accumulate
//
// Without -append the file holds one flat {"results": [...]} document and
// every invocation replaces it. With -append the file holds a history:
// {"runs": [{"time", "host_cpus", "go_max_procs", "go_version", "note",
// "results"}, ...]} and every invocation adds one timestamped run. A flat
// legacy file is migrated in place: its results become the first run
// (with no timestamp or host metadata, since none were recorded). The
// host_cpus field is what makes wall-clock numbers comparable across
// machines — a flat -j ladder on a 1-CPU builder is expected, not a
// regression, and without the CPU count next to the numbers that is
// indistinguishable from the scaling bug the ladder exists to catch.
//
// Parsed per benchmark: the name (with the trailing -GOMAXPROCS tag
// kept, since it is part of the measurement), iteration count, ns/op,
// and any extra metrics reported with b.ReportMetric (bytes/op, allocs/op,
// methods/s, ...).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchLine matches one result line: name, iterations, ns/op, and the
// remainder holding optional extra metrics.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

// extraMetric matches one "<value> <unit>" pair in the remainder.
var extraMetric = regexp.MustCompile(`([0-9.]+) (\S+)`)

type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// archivedRun is one archived benchmark invocation in append mode.
type archivedRun struct {
	Time       string   `json:"time,omitempty"` // RFC 3339 UTC; empty for migrated legacy results
	HostCPUs   int      `json:"host_cpus,omitempty"`
	GoMaxProcs int      `json:"go_max_procs,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Note       string   `json:"note,omitempty"`
	Results    []result `json:"results"`
}

// document is both on-disk shapes: exactly one of Results (flat,
// overwrite mode) or Runs (history, append mode) is populated.
type document struct {
	Results []result      `json:"results,omitempty"`
	Runs    []archivedRun `json:"runs,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, echoes stdin to out while collecting the result lines,
// and writes the archive; a one-line summary goes to the log.
func run(args []string, stdin io.Reader, out io.Writer) error {
	flags := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	path := flags.String("o", "benchmarks.json", "write the parsed results to this file")
	appendMode := flags.Bool("append", false, "append a timestamped run to -o instead of overwriting it")
	note := flags.String("note", "", "free-form label stored with the run (append mode only)")
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", flags.Args())
	}

	results, err := parse(stdin, out)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return errors.New("no benchmark results on stdin")
	}

	var doc document
	if *appendMode {
		if doc, err = loadHistory(*path); err != nil {
			return err
		}
		doc.Runs = append(doc.Runs, archivedRun{
			Time:       time.Now().UTC().Format(time.RFC3339),
			HostCPUs:   runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Note:       *note,
			Results:    results,
		})
	} else {
		doc = document{Results: results}
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if *appendMode {
		log.Printf("appended run %d (%d results) to %s", len(doc.Runs), len(results), *path)
	} else {
		log.Printf("wrote %d results to %s", len(results), *path)
	}
	return nil
}

// parse echoes every line of in to out and collects the benchmark result
// lines.
func parse(in io.Reader, out io.Writer) ([]result, error) {
	var results []result
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if _, err := fmt.Fprintln(out, line); err != nil {
			return nil, err
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		r := result{Name: m[1], Iterations: iters, NsPerOp: ns}
		for _, em := range extraMetric.FindAllStringSubmatch(strings.TrimSpace(m[4]), -1) {
			v, err := strconv.ParseFloat(em[1], 64)
			if err != nil {
				continue
			}
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[em[2]] = v
		}
		results = append(results, r)
	}
	return results, sc.Err()
}

// loadHistory reads an existing archive for append mode. A missing file
// starts an empty history; a legacy flat document is migrated into the
// first run so old baselines stay diffable against new entries. Anything
// unparseable is an error rather than silently clobbered.
func loadHistory(path string) (document, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return document{}, nil
	}
	if err != nil {
		return document{}, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return document{}, fmt.Errorf("existing %s is not a benchjson document: %v", path, err)
	}
	if len(doc.Results) > 0 {
		doc.Runs = append([]archivedRun{{
			Note:    "migrated from pre-append flat archive; host metadata unrecorded",
			Results: doc.Results,
		}}, doc.Runs...)
		doc.Results = nil
	}
	return doc, nil
}
