// Command simpleperf mimics the profiling step of the paper's Figure 6
// workflow: run the scripted workload on an emulated device, sample the
// program counter, and report the per-function cycle attribution plus the
// hot set that hot-function filtering would protect.
//
// Usage:
//
//	simpleperf -app Kuaishou [-scale 0.1] [-runs 20] [-top 15] [-coverage 0.8]
//	           [-json profile.json]
//
// -json dumps the full profile — every sampled function, not just the
// -top table — plus the hot set at the configured coverage, as a JSON
// document for downstream tooling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/profiler"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simpleperf:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simpleperf", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		appName  = fs.String("app", "Wechat", "app profile name")
		scale    = fs.Float64("scale", 0.1, "app scale factor")
		runs     = fs.Int("runs", 20, "scripted rounds")
		top      = fs.Int("top", 15, "functions to list")
		coverage = fs.Float64("coverage", 0.8, "hot-set cycle coverage fraction")
		period   = fs.Int64("period", 0, "sampling period in instructions (0 = default)")
		jsonPath = fs.String("json", "", "dump the full profile and hot set as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	switch {
	case !(*scale > 0):
		return fmt.Errorf("-scale %v: must be positive", *scale)
	case !(*coverage > 0 && *coverage <= 1):
		return fmt.Errorf("-coverage %v: must be in (0, 1]", *coverage)
	case *top < 0:
		return fmt.Errorf("-top %d: must not be negative", *top)
	case *runs <= 0:
		return fmt.Errorf("-runs %d: must be positive", *runs)
	case *period < 0:
		return fmt.Errorf("-period %d: must not be negative", *period)
	}

	prof, ok := workload.AppByName(*appName, *scale)
	if !ok {
		return fmt.Errorf("unknown app %q", *appName)
	}
	app, man, err := workload.Generate(prof)
	if err != nil {
		return err
	}
	res, err := core.BuildCtx(context.Background(), app, core.Baseline())
	if err != nil {
		return err
	}
	script := workload.Script(man, *runs, 1)
	p, err := profiler.Collect(res.Image, script, *period)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s: %s samples over %d scripted operations (%s in shared code)\n",
		app.Name, report.Count(p.TotalSamples), len(script), report.Count(p.OtherSamples))

	hot := p.HotSet(*coverage)
	var methodTotal int64
	for _, f := range p.Functions {
		methodTotal += f.Samples
	}
	t := &report.Table{
		Title:  fmt.Sprintf("\ntop functions (hot set: %d methods cover %.0f%% of samples)", len(hot), 100**coverage),
		Header: []string{"method", "samples", "share", "cumulative", "hot"},
	}
	var cum int64
	for i, f := range p.Functions {
		if i >= *top {
			break
		}
		cum += f.Samples
		mark := ""
		if hot[f.Method] {
			mark = "*"
		}
		t.AddRow(app.Methods[f.Method].FullName(),
			fmt.Sprint(f.Samples),
			report.Pct(float64(f.Samples)/float64(methodTotal)),
			report.Pct(float64(cum)/float64(methodTotal)),
			mark)
	}
	fmt.Fprintln(out, t)
	fmt.Fprintf(out, "generator planted %d hot kernels; profiler hot set holds %d methods\n",
		len(man.Hot), len(hot))

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, app, p, hot, *coverage); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote profile %s\n", *jsonPath)
	}
	return nil
}

// profileJSON is the -json document: the complete sample attribution (the
// printed table truncates at -top; this does not) and the hot set at the
// configured coverage.
type profileJSON struct {
	App          string         `json:"app"`
	TotalSamples int64          `json:"total_samples"`
	OtherSamples int64          `json:"other_samples"`
	Coverage     float64        `json:"coverage"`
	HotSet       []int          `json:"hot_set"`
	Functions    []functionJSON `json:"functions"`
}

type functionJSON struct {
	Method  int    `json:"method"`
	Name    string `json:"name"`
	Samples int64  `json:"samples"`
}

func writeJSON(path string, app *dex.App, p *profiler.Profile, hot map[dex.MethodID]bool, coverage float64) error {
	doc := profileJSON{
		App:          app.Name,
		TotalSamples: p.TotalSamples,
		OtherSamples: p.OtherSamples,
		Coverage:     coverage,
		HotSet:       []int{},
	}
	for id := range hot {
		doc.HotSet = append(doc.HotSet, int(id))
	}
	sort.Ints(doc.HotSet)
	for _, f := range p.Functions {
		doc.Functions = append(doc.Functions, functionJSON{
			Method:  int(f.Method),
			Name:    app.Methods[f.Method].FullName(),
			Samples: f.Samples,
		})
	}
	out, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
