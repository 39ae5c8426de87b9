// Command oatlint statically verifies a linked OAT image from the bytes
// alone: it recovers per-method and per-outlined-function control-flow
// graphs, checks control-flow integrity (branch targets, bl callees,
// outlined-function shape), and runs the dataflow pass proving
// stack-pointer balance and callee-saved register discipline on every
// path. Unlike `oatdump -verify`, which performs the loader's shallow
// structural checks, oatlint re-derives the §3.5 safety argument with no
// access to any compile-time state — so it can vet cached or untrusted
// images.
//
// Usage:
//
//	oatlint [-v] [-rule name] [-rules spec] [-orig pre.oat] [-roots ids]
//	        [-json] [-callgraph] [-reach] [-j N] [-trace t.json]
//	        [-metrics m.json] [-pprof cpu.out|mem.out] app.oat
//
// Per-method checks run on -j worker goroutines (0 = all CPUs); findings
// and their order are identical for every -j. -rules selects and
// re-grades checks through the pluggable rule engine ("all", "legacy",
// "interproc", NAME, -NAME, NAME=info|warn|error, comma-separated); by
// default it runs the per-method rules of the shared verification pass,
// the same findings calibro's build-time lint reports. -orig supplies
// the pre-pass image for the paired equivalence rules
// (reoutlined-body-equivalent, lift-frozen-untouched), which verify a
// re-outlined image against the one it was produced from; without it
// those rules have nothing to compare and stay silent. -roots supplies
// the reachability root set for the interprocedural rules and reports as
// comma-separated method IDs (default: every method with no recovered
// caller); an empty entry, or an ID outside the image's method table, is
// a usage error. -callgraph prints the recovered whole-image call graph
// and -reach the reachability report. -json emits the findings as a JSON
// array (rule id, severity, method, pc) instead of text. -trace writes a
// Chrome trace-event JSON of the analysis (per-method spans on worker
// lanes; Perfetto-loadable), -metrics the aggregated metrics snapshot,
// and -pprof a runtime/pprof profile ("mem*" = heap, otherwise CPU).
// Exit status is 0 when the image is clean, 1 when there are findings,
// and 2 on usage or I/O errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it lints the image named by args,
// writes findings to out, and returns the process exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oatlint", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.Usage = func() {
		fmt.Fprintln(errOut, "usage: oatlint [-v] [-rule name] [-rules spec] [-orig pre.oat] [-roots ids] [-json] [-callgraph] [-reach] [-j N] [-trace t.json] [-metrics m.json] [-pprof out] app.oat")
		fs.PrintDefaults()
	}
	var (
		verbose = fs.Bool("v", false, "report advisory findings and per-method statistics")
		rule    = fs.String("rule", "", "only report findings under this rule")
		rules   = fs.String("rules", "", "rule-engine spec: all|legacy|interproc|NAME|-NAME|NAME=info|warn|error, comma-separated")
		origIn  = fs.String("orig", "", "pre-pass image for the paired equivalence rules (reoutlined-body-equivalent, lift-frozen-untouched); implies -rules all when -rules is unset")
		roots   = fs.String("roots", "", "comma-separated method IDs rooting reachability (default: no-caller inference)")
		asJSON  = fs.Bool("json", false, "emit findings as a JSON array instead of text")
		dumpCG  = fs.Bool("callgraph", false, "print the recovered whole-image call graph")
		dumpRch = fs.Bool("reach", false, "print the reachability report for the root set")
		workers = fs.Int("j", 0, "analysis worker goroutines; 0 = all CPUs (findings are identical for every value)")

		tracePath   = fs.String("trace", "", "write a Chrome trace-event JSON of the analysis to this file")
		metricsPath = fs.String("metrics", "", "write the flat metrics snapshot JSON to this file")
		pprofPath   = fs.String("pprof", "", "collect a runtime/pprof profile (mem* = heap at exit, otherwise CPU)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	var stopProfile func() error
	if *pprofPath != "" {
		stop, err := obs.StartProfile(*pprofPath)
		if err != nil {
			fmt.Fprintln(errOut, "oatlint:", err)
			return 2
		}
		stopProfile = stop
	}
	var tracer *obs.Tracer
	if *tracePath != "" || *metricsPath != "" {
		tracer = obs.New()
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(errOut, "oatlint:", err)
		return 2
	}
	img, err := oat.Unmarshal(data)
	if err != nil {
		fmt.Fprintln(errOut, "oatlint:", err)
		return 2
	}

	rootIDs, err := analysis.ParseRoots(*roots)
	if err != nil {
		fmt.Fprintln(errOut, "oatlint: -roots:", err)
		return 2
	}
	rootSet := analysis.RootSet{Methods: rootIDs}
	if len(rootIDs) == 0 {
		rootSet = analysis.DefaultRoots()
	}

	var orig *oat.Image
	if *origIn != "" {
		origData, err := os.ReadFile(*origIn)
		if err != nil {
			fmt.Fprintln(errOut, "oatlint:", err)
			return 2
		}
		if orig, err = oat.Unmarshal(origData); err != nil {
			fmt.Fprintln(errOut, "oatlint: -orig:", err)
			return 2
		}
		if *rules == "" {
			*rules = "all"
		}
	}

	spec, err := analysis.ParseRuleSpec(*rules)
	if err != nil {
		fmt.Fprintln(errOut, "oatlint:", err)
		return 2
	}
	// One call serves every flag: the empty spec is the per-method rule
	// set, and a nil orig silences the paired rules.
	sp := tracer.Start("stage", "lint").Arg("methods", int64(len(img.Methods)))
	rep, err := analysis.RunRulesPaired(context.Background(), img, orig, spec, rootSet, *workers, tracer)
	if err != nil {
		sp.End()
		fmt.Fprintln(errOut, "oatlint:", err)
		return 2
	}
	sp.End()
	if code := writeTelemetry(tracer, *tracePath, *metricsPath, stopProfile, errOut); code != 0 {
		return code
	}

	if *dumpCG || *dumpRch {
		cg, _ := analysis.BuildCallGraphCtx(context.Background(), img, *workers)
		if *dumpCG {
			if err := cg.WriteDump(out); err != nil {
				fmt.Fprintln(errOut, "oatlint:", err)
				return 2
			}
		}
		if *dumpRch {
			if err := cg.Reachable(rootSet).WriteReport(out, cg); err != nil {
				fmt.Fprintln(errOut, "oatlint:", err)
				return 2
			}
		}
	}

	blocking := 0
	var selected []analysis.Finding
	for _, f := range rep.Findings {
		if f.Severity >= analysis.SevWarn {
			blocking++
		}
		if *rule != "" && f.Rule != *rule {
			continue
		}
		if f.Severity >= analysis.SevWarn || *verbose || *asJSON {
			selected = append(selected, f)
		}
	}
	if *asJSON {
		if code := writeJSONFindings(out, errOut, selected); code != 0 {
			return code
		}
		if blocking > 0 {
			return 1
		}
		return 0
	}
	for _, f := range selected {
		fmt.Fprintln(out, f)
	}

	if *verbose {
		var insts, blocks, dead, calls int
		for _, m := range rep.Methods {
			insts += m.Insts
			blocks += m.Blocks
			dead += m.DeadBlocks
			calls += m.Calls
		}
		fmt.Fprintf(out, "%s text: %d methods (%d instructions, %d blocks, %d dead, %d call sites), %d thunks, %d outlined functions\n",
			report.Bytes(rep.TextBytes), len(rep.Methods), insts, blocks, dead, calls,
			rep.Thunks, rep.Outlined)
	}

	if blocking > 0 {
		plural := "s"
		if blocking == 1 {
			plural = ""
		}
		fmt.Fprintf(out, "oatlint: %d finding%s\n", blocking, plural)
		return 1
	}
	fmt.Fprintln(out, "oatlint: image is clean")
	return 0
}

// writeTelemetry flushes the trace, metrics, and pprof outputs; any write
// failure is an I/O error (exit 2).
func writeTelemetry(tracer *obs.Tracer, tracePath, metricsPath string, stopProfile func() error, errOut io.Writer) int {
	export := func(path string, write func(w io.Writer) error) int {
		if path == "" {
			return 0
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(errOut, "oatlint:", err)
			return 2
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(errOut, "oatlint:", err)
			return 2
		}
		return 0
	}
	if code := export(tracePath, tracer.WriteTrace); code != 0 {
		return code
	}
	if code := export(metricsPath, tracer.WriteMetrics); code != 0 {
		return code
	}
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(errOut, "oatlint:", err)
			return 2
		}
	}
	return 0
}

// findingJSON is one finding on the -json wire: the stable rule ID, the
// severity name, the method slot (-1 for thunk/blob/image-level
// findings), and the byte offset within the method or region (-1 when
// not positional).
type findingJSON struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	Method   int    `json:"method"`
	PC       int    `json:"pc"`
	Msg      string `json:"msg"`
}

// writeJSONFindings emits the findings as an indented JSON array; an
// empty selection renders as [] so consumers always get valid JSON.
func writeJSONFindings(out, errOut io.Writer, findings []analysis.Finding) int {
	arr := make([]findingJSON, 0, len(findings))
	for _, f := range findings {
		method := int(f.Method)
		if f.Method == analysis.NoMethod {
			method = -1
		}
		arr = append(arr, findingJSON{
			Rule:     f.Rule,
			Severity: f.Severity.String(),
			Method:   method,
			PC:       f.Off,
			Msg:      f.Msg,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(arr); err != nil {
		fmt.Fprintln(errOut, "oatlint:", err)
		return 2
	}
	return 0
}
