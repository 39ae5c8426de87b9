// Command appgen generates a synthetic application and prints its shape:
// the dex-level statistics, the pattern-site densities the workload is
// calibrated to, and (with -dump) selected method bodies. It exists to make
// the experiment inputs inspectable.
//
// Usage:
//
//	appgen -app Meituan -scale 0.1 [-dump 5]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/outline"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "appgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("appgen", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		appName = fs.String("app", "Wechat", "app profile name")
		scale   = fs.Float64("scale", 0.1, "scale factor")
		seed    = fs.Int64("seed", 0, "override the profile seed")
		methods = fs.Int("methods", 0, "override the method count, drivers included")
		dump    = fs.Int("dump", 0, "print the bytecode of this many methods")
		outPath = fs.String("o", "", "write the app in the binary dex container format")
		text    = fs.Bool("text", false, "dump the whole app in the smali-like text format")
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
	if *dump < 0 {
		return fmt.Errorf("-dump %d: must not be negative", *dump)
	}

	prof, ok := workload.AppByName(*appName, *scale)
	if !ok {
		return fmt.Errorf("unknown app %q", *appName)
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	if *methods != 0 {
		if *methods <= workload.NumDrivers {
			return fmt.Errorf("-methods %d: must exceed the %d driver methods", *methods, workload.NumDrivers)
		}
		prof.Methods = *methods - workload.NumDrivers
	}
	app, man, err := workload.Generate(prof)
	if err != nil {
		return err
	}
	st := app.CollectStats()
	fmt.Fprintf(out, "%s: %d methods (%d native), %d classes, %d dex instructions\n",
		app.Name, st.Methods, st.Native, st.Classes, st.Insns)
	fmt.Fprintf(out, "drivers: %v\nhot kernels: %d methods\n", man.Drivers, len(man.Hot))

	compiled, err := codegen.CompileCtx(context.Background(), app, codegen.Options{Optimize: true})
	if err != nil {
		return err
	}
	var words int
	for _, cm := range compiled {
		words += len(cm.Code)
	}
	pc := outline.CountPatterns(compiled)
	n := float64(st.Methods - st.Native)
	fmt.Fprintf(out, "compiled: %d instruction words (%.1f per method)\n", words, float64(words)/n)
	fmt.Fprintf(out, "pattern densities per method: java-call %.2f, stack-check %.2f, allocObject %.2f\n",
		float64(pc.JavaCall)/n, float64(pc.StackCheck)/n, float64(pc.NativeAlloc)/n)
	fmt.Fprintf(out, "(paper WeChat: 5.78, 0.99, 1.25)\n")

	if *text {
		fmt.Fprint(out, dex.DumpText(app))
	}
	if *outPath != "" {
		data, err := dex.Marshal(app)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d bytes)\n", *outPath, len(data))
	}

	for id := 0; id < *dump && id < len(app.Methods); id++ {
		m := app.Methods[id]
		fmt.Fprintf(out, "\nmethod m%d %s (regs=%d ins=%d native=%v):\n", id, m.FullName(), m.NumRegs, m.NumIns, m.Native)
		for addr, in := range m.Code {
			fmt.Fprintf(out, "  %4d: %v\n", addr, in)
		}
	}
	return nil
}
