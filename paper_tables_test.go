package calibro

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the goldens under testdata")

// paperTableScale is the app scale the golden pins, whatever
// CALIBRO_SCALE says: small enough to keep `go test` quick, large enough
// that every shape EXPERIMENTS.md claims already holds.
const paperTableScale = 0.05

// TestPaperTables pins the raw cells of the paper's deterministic tables
// at paperTableScale: Table 1's estimated saved and total words, Table 4's
// text bytes, Table 5's resident bytes and Table 7's cycles. Sizes come
// from the linker and cycles and pages from the emulator, so any change
// to a cell is a change to the program's output. Table 6 is wall-clock
// time and is not pinned. The test also asserts the shapes EXPERIMENTS.md
// claims. Regenerate the golden only on an intended output change:
// go test -run TestPaperTables -update .
func TestPaperTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the six-app ladder; skipped under -short")
	}
	apps := suiteAt(t, paperTableScale)
	var golden strings.Builder
	fmt.Fprintf(&golden, "# Raw cells of Tables 1, 4, 5 and 7 at scale %.2f.\n", paperTableScale)
	fmt.Fprintf(&golden, "# One line per (table, quantity, config); one column per app.\n")
	fmt.Fprintf(&golden, "apps %s\n", strings.Join(appNames(apps), " "))
	put := func(table, quantity, config string, cells []int64) {
		fmt.Fprintf(&golden, "%s %s %s", table, quantity, config)
		for _, c := range cells {
			fmt.Fprintf(&golden, " %d", c)
		}
		golden.WriteByte('\n')
	}

	saved := make([]int64, len(apps))
	total := make([]int64, len(apps))
	for k, ab := range apps {
		a := AnalyzeRedundancy(build(t, ab, "baseline"), false)
		saved[k], total[k] = int64(a.EstimatedSavedWords), int64(a.TotalWords)
	}
	put("table1", "est-saved-words", "baseline", saved)
	put("table1", "total-words", "baseline", total)

	text := table4.compute(t, apps)
	resident := table5.compute(t, apps)
	cycles := table7.compute(t, apps)
	for _, tc := range []struct {
		table, quantity string
		l               ladder
		r               ladderResult
	}{
		{"table4", "text-bytes", table4, text},
		{"table5", "resident-bytes", table5, resident},
		{"table7", "cycles", table7, cycles},
	} {
		for _, cfg := range tc.l.configs {
			put(tc.table, tc.quantity, cfg, tc.r.raw[cfg])
		}
	}

	path := filepath.Join("testdata", "paper_tables.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := golden.String(); got != string(want) {
		t.Errorf("paper table cells changed; got:\n%s\nwant:\n%s", got, want)
	}

	// The shapes EXPERIMENTS.md claims, read off the same cells.
	red := text.avg
	if !(red["cto"] < red["hfopti"] && red["hfopti"] <= red["plopti"] && red["plopti"] < red["ltbo"]) {
		t.Errorf("Table 4 averages do not order as CTO < +PlOpti+HfOpti <= +PlOpti < +LTBO: %.2f%% / %.2f%% / %.2f%% / %.2f%%",
			100*red["cto"], 100*red["hfopti"], 100*red["plopti"], 100*red["ltbo"])
	}
	est := make([]float64, len(apps))
	for k := range apps {
		est[k] = float64(saved[k]) / float64(total[k])
	}
	for _, tc := range []struct {
		table string
		red   []float64
	}{{"Table 1", est}, {"Table 4 CTO+LTBO", text.rel["ltbo"]}} {
		if top := apps[argmax(tc.red)].prof.Name; top != "Kuaishou" {
			t.Errorf("%s: the largest reduction is %s's, want Kuaishou's", tc.table, top)
		}
	}
	if deg := cycles.avg; !(deg["hfopti"] < deg["plopti"]) {
		t.Errorf("Table 7: HfOpti does not lower the average degradation: %.2f%% -> %.2f%%", 100*deg["plopti"], 100*deg["hfopti"])
	}
	if mem := resident.avg["ltbo"]; !(mem < red["ltbo"]) {
		t.Errorf("Table 5's CTO+LTBO reduction %.2f%% is not below Table 4's %.2f%%", 100*mem, 100*red["ltbo"])
	}
}

// argmax returns the index of the largest value.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
