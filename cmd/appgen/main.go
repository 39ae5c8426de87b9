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
	"log"
	"os"

	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/outline"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("appgen: ")
	var (
		appName = flag.String("app", "Wechat", "app profile name")
		scale   = flag.Float64("scale", 0.1, "scale factor")
		seed    = flag.Int64("seed", 0, "override the profile seed")
		methods = flag.Int("methods", 0, "override the method count")
		dump    = flag.Int("dump", 0, "print the bytecode of this many methods")
		outPath = flag.String("o", "", "write the app in the binary dex container format")
		text    = flag.Bool("text", false, "dump the whole app in the smali-like text format")
	)
	flag.Parse()

	prof, ok := workload.AppByName(*appName, *scale)
	if !ok {
		log.Fatalf("unknown app %q", *appName)
	}
	if *seed != 0 {
		prof.Seed = *seed
	}
	if *methods != 0 {
		prof.Methods = *methods
	}
	app, man, err := workload.Generate(prof)
	if err != nil {
		log.Fatal(err)
	}
	st := app.CollectStats()
	fmt.Printf("%s: %d methods (%d native), %d classes, %d dex instructions\n",
		app.Name, st.Methods, st.Native, st.Classes, st.Insns)
	fmt.Printf("drivers: %v\nhot kernels: %d methods\n", man.Drivers, len(man.Hot))

	compiled, err := codegen.CompileCtx(context.Background(), app, codegen.Options{Optimize: true})
	if err != nil {
		log.Fatal(err)
	}
	var words int
	for _, cm := range compiled {
		words += len(cm.Code)
	}
	pc := outline.CountPatterns(compiled)
	n := float64(st.Methods - st.Native)
	fmt.Printf("compiled: %d instruction words (%.1f per method)\n", words, float64(words)/n)
	fmt.Printf("pattern densities per method: java-call %.2f, stack-check %.2f, allocObject %.2f\n",
		float64(pc.JavaCall)/n, float64(pc.StackCheck)/n, float64(pc.NativeAlloc)/n)
	fmt.Printf("(paper WeChat: 5.78, 0.99, 1.25)\n")

	if *text {
		fmt.Print(dex.DumpText(app))
	}
	if *outPath != "" {
		data, err := dex.Marshal(app)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *outPath, len(data))
	}

	for id := 0; id < *dump && id < len(app.Methods); id++ {
		m := app.Methods[id]
		fmt.Printf("\nmethod m%d %s (regs=%d ins=%d native=%v):\n", id, m.FullName(), m.NumRegs, m.NumIns, m.Native)
		for addr, in := range m.Code {
			fmt.Printf("  %4d: %v\n", addr, in)
		}
	}
}
