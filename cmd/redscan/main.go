// Command redscan reproduces the paper's §2.2 redundancy analysis on a
// synthetic app: it compiles the app at the baseline configuration, builds
// a suffix tree over the binary code, and reports the estimated code-size
// reduction (Table 1), the sequence-length/repeat-count distribution
// (Figure 3), and the hottest repeated patterns (Observation 3, Figure 4).
//
// Usage:
//
//	redscan [-app Wechat] [-scale 0.25] [-bounded] [-top 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/outline"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redscan:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("redscan", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		appName = fs.String("app", "Wechat", "app profile name")
		scale   = fs.Float64("scale", 0.25, "app scale factor")
		bounded = fs.Bool("bounded", false, "apply the outliner's correctness constraints to the scan")
		top     = fs.Int("top", 5, "how many top repeats to disassemble")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if !(*scale > 0) {
		return fmt.Errorf("-scale %v: must be positive", *scale)
	}
	if *top < 0 {
		return fmt.Errorf("-top %d: must not be negative", *top)
	}

	prof, ok := workload.AppByName(*appName, *scale)
	if !ok {
		return fmt.Errorf("unknown app %q", *appName)
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		return err
	}
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{Optimize: true})
	if err != nil {
		return err
	}

	a := outline.Analyze(methods, *bounded)
	fmt.Fprintf(out, "%s: %d instruction words of binary code\n", app.Name, a.TotalWords)
	fmt.Fprintf(out, "estimated reduction ratio (Table 1 model): %s (%d words)\n",
		report.Pct(a.EstimatedReduction), a.EstimatedSavedWords)

	fmt.Fprintln(out, "\nsequence length vs number of repeats (Figure 3):")
	lengths := make([]int, 0, len(a.OccurrencesByLength))
	for l := range a.OccurrencesByLength {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	for _, l := range lengths {
		if l > 24 {
			fmt.Fprintf(out, "  (lengths above 24 omitted: %d more)\n", len(lengths)-24)
			break
		}
		fmt.Fprintf(out, "  len %2d: %8s occurrences in %d families\n",
			l, report.Count(a.OccurrencesByLength[l]), a.RepeatFamilies[l])
	}

	pc := outline.CountPatterns(methods)
	fmt.Fprintln(out, "\nART-specific pattern sites (Figure 4):")
	fmt.Fprintf(out, "  Java function call (ldr x30,[x0,#entry]; blr x30):  %s\n", report.Count(int64(pc.JavaCall)))
	fmt.Fprintf(out, "  stack overflow check (sub x16,sp,#0x2000; ldr wzr): %s\n", report.Count(int64(pc.StackCheck)))
	fmt.Fprintf(out, "  pAllocObjectResolved call (ldr x30,[x19,#o]; blr):  %s (all entrypoints: %s)\n",
		report.Count(int64(pc.NativeAlloc)), report.Count(int64(pc.NativeCall)))

	fmt.Fprintln(out, "\ntop repeated sequences:")
	for i, r := range a.Top {
		if i >= *top {
			break
		}
		fmt.Fprintf(out, "  #%d: length %d, %d occurrences\n", i+1, r.Length, r.Count)
		for _, line := range a64.Disassemble(r.Words, 0) {
			fmt.Fprintf(out, "      %s\n", line)
		}
	}
	return nil
}
