package outline

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/workload"
)

func genApp(t *testing.T, seed int64, methods int) (*dex.App, *workload.Manifest) {
	t.Helper()
	app, man, err := workload.Generate(workload.Profile{
		Name: "t", Seed: seed, Methods: methods,
		NativeFrac: 0.08, SwitchFrac: 0.12, HotFrac: 0.06,
		HotLoopIters: 30, WarmLoopIters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app, man
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s changed:\n got:\n%s want:\n%s", name, got, want)
	}
}

func compile(t *testing.T, app *dex.App, cto bool) []*codegen.CompiledMethod {
	t.Helper()
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: cto, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return methods
}

func link(t *testing.T, methods []*codegen.CompiledMethod, blobs []oat.Blob) *oat.Image {
	t.Helper()
	img, err := oat.Link(methods, blobs)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// diff runs interpreter and emulator and requires identical observables.
func diff(t *testing.T, app *dex.App, img *oat.Image, entry dex.MethodID, args []int64) {
	t.Helper()
	ip := &hgraph.Interp{App: app, MaxDepth: 10_000}
	want, err := ip.Run(entry, args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := emu.New(img).Run(entry, args)
	if err != nil {
		t.Fatalf("emu: %v", err)
	}
	if want.Ret != got.Ret || want.Exc != got.Exc || !reflect.DeepEqual(want.Log, got.Log) {
		t.Fatalf("outlined binary diverges (entry m%d args %v)\ninterp: ret=%d exc=%v len(log)=%d\nemu:    ret=%d exc=%v len(log)=%d",
			entry, args, want.Ret, want.Exc, len(want.Log), got.Ret, got.Exc, len(got.Log))
	}
}

// TestOutlinePreservesSemantics is the headline correctness test: for
// random apps, every optimization combination must preserve observable
// behaviour while shrinking the text segment.
func TestOutlinePreservesSemantics(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		app, man := genApp(t, seed, 50)
		baseline := link(t, compile(t, app, false), nil)

		for _, cto := range []bool{false, true} {
			for _, parallel := range []int{1, 4} {
				for _, hot := range []bool{false, true} {
					methods := compile(t, app, cto)
					opts := Options{Parallel: parallel}
					if hot {
						opts.Hot = map[dex.MethodID]bool{}
						for _, id := range man.Hot {
							opts.Hot[id] = true
						}
					}
					blobs, stats, err := RunCtx(context.Background(), methods, opts)
					if err != nil {
						t.Fatalf("seed %d cto=%v par=%d hot=%v: %v", seed, cto, parallel, hot, err)
					}
					img := link(t, methods, blobs)
					if img.TextBytes() >= baseline.TextBytes() {
						t.Errorf("seed %d cto=%v par=%d hot=%v: no size reduction (%d >= %d); stats %+v",
							seed, cto, parallel, hot, img.TextBytes(), baseline.TextBytes(), stats)
					}
					for _, entry := range man.Drivers {
						for _, args := range [][]int64{{0, 0}, {7, 3}, {100, 9}} {
							diff(t, app, img, entry, args)
						}
					}
				}
			}
		}
	}
}

func TestOutlineExcludesProtectedMethods(t *testing.T) {
	app, _ := genApp(t, 11, 60)
	methods := compile(t, app, true)
	before := make(map[int][]uint32)
	for i, cm := range methods {
		if cm.Meta.IsNative || cm.Meta.HasIndirectJump {
			before[i] = append([]uint32(nil), cm.Code...)
		}
	}
	if len(before) == 0 {
		t.Fatal("test app has no protected methods")
	}
	_, stats, err := RunCtx(context.Background(), methods, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExcludedNative == 0 || stats.ExcludedIndirect == 0 {
		t.Errorf("exclusions not counted: %+v", stats)
	}
	for i, want := range before {
		if !reflect.DeepEqual(methods[i].Code, want) {
			t.Errorf("protected method %s was modified", methods[i].M.FullName())
		}
	}
}

func TestOutlinedFunctionShape(t *testing.T) {
	app, _ := genApp(t, 21, 50)
	methods := compile(t, app, true)
	blobs, stats, err := RunCtx(context.Background(), methods, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutlinedFunctions == 0 || len(blobs) != stats.OutlinedFunctions {
		t.Fatalf("no outlined functions: %+v", stats)
	}
	brLR := a64.MustEncode(a64.Inst{Op: a64.OpBr, Rn: a64.LR})
	for _, b := range blobs {
		kind, _ := codegen.UnpackSym(b.Sym)
		if kind != codegen.SymKindOutlined {
			t.Errorf("blob has wrong symbol kind %d", kind)
		}
		if len(b.Code) < 3 {
			t.Errorf("outlined function of %d words cannot be beneficial", len(b.Code))
		}
		if b.Code[len(b.Code)-1] != brLR {
			t.Errorf("outlined function does not end in br x30")
		}
		for _, w := range b.Code[:len(b.Code)-1] {
			inst, ok := a64.Decode(w)
			if !ok {
				t.Errorf("outlined function contains data word %#08x", w)
				continue
			}
			if inst.Op.IsBranch() || inst.Op.IsPCRel() || usesLR(inst) {
				t.Errorf("outlined function contains unsafe instruction %s", inst)
			}
		}
	}
	if stats.NetWordsSaved() <= 0 {
		t.Errorf("net saving %d", stats.NetWordsSaved())
	}
}

func TestStackMapsStayConsistent(t *testing.T) {
	app, _ := genApp(t, 31, 40)
	methods := compile(t, app, true)
	type key struct{ m, i int }
	// Remember which instruction word each safepoint covered.
	wordBefore := map[key]uint32{}
	for mi, cm := range methods {
		for si, s := range cm.StackMap {
			wordBefore[key{mi, si}] = cm.Code[s.NativeOff/4]
		}
	}
	if _, _, err := RunCtx(context.Background(), methods, Options{}); err != nil {
		t.Fatal(err)
	}
	for mi, cm := range methods {
		for si, s := range cm.StackMap {
			if s.NativeOff%4 != 0 || s.NativeOff/4 >= len(cm.Code) {
				t.Fatalf("stack map entry out of range after outlining")
			}
			if got := cm.Code[s.NativeOff/4]; got != wordBefore[key{mi, si}] {
				// bl displacements are rebound at link, so compare opcode
				// class rather than raw bits for external call sites.
				gi, ok1 := a64.Decode(got)
				wi, ok2 := a64.Decode(wordBefore[key{mi, si}])
				if !ok1 || !ok2 || gi.Op != wi.Op {
					t.Errorf("safepoint %d of %s moved to a different instruction", si, cm.M.FullName())
				}
			}
		}
	}
}

func TestParallelLosesSomeReduction(t *testing.T) {
	// §3.4.1: partitioned trees may only lose reduction, never gain.
	app, _ := genApp(t, 41, 80)
	m1 := compile(t, app, true)
	_, s1, err := RunCtx(context.Background(), m1, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	m8 := compile(t, app, true)
	_, s8, err := RunCtx(context.Background(), m8, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s8.NetWordsSaved() > s1.NetWordsSaved() {
		t.Errorf("parallel outlining saved more than global: %d > %d",
			s8.NetWordsSaved(), s1.NetWordsSaved())
	}
	if s1.NetWordsSaved() <= 0 || s8.NetWordsSaved() <= 0 {
		t.Errorf("savings: global %d, parallel %d", s1.NetWordsSaved(), s8.NetWordsSaved())
	}
}

func TestHotFilterReducesLess(t *testing.T) {
	app, man := genApp(t, 51, 80)
	mAll := compile(t, app, true)
	_, sAll, err := RunCtx(context.Background(), mAll, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hot := map[dex.MethodID]bool{}
	for _, id := range man.Hot {
		hot[id] = true
	}
	mHot := compile(t, app, true)
	_, sHot, err := RunCtx(context.Background(), mHot, Options{Hot: hot})
	if err != nil {
		t.Fatal(err)
	}
	if sHot.HotFiltered == 0 {
		t.Fatal("no methods hot-filtered")
	}
	if sHot.NetWordsSaved() > sAll.NetWordsSaved() {
		t.Errorf("hot filtering increased savings: %d > %d", sHot.NetWordsSaved(), sAll.NetWordsSaved())
	}
}

func TestAnalyze(t *testing.T) {
	app, _ := genApp(t, 61, 60)
	methods := compile(t, app, false)
	ideal := Analyze(methods, false)
	real := Analyze(methods, true)
	if ideal.EstimatedReduction <= 0 || real.EstimatedReduction <= 0 {
		t.Fatalf("estimates: ideal %f real %f", ideal.EstimatedReduction, real.EstimatedReduction)
	}
	if real.EstimatedReduction > ideal.EstimatedReduction {
		t.Errorf("constrained estimate %f exceeds idealized %f",
			real.EstimatedReduction, ideal.EstimatedReduction)
	}
	if len(ideal.Top) == 0 || ideal.Top[0].Count < ideal.Top[len(ideal.Top)-1].Count {
		t.Errorf("top repeats not sorted by count")
	}
	// Observation 2: short repeats dominate. Compare occurrence mass of
	// lengths 2-4 against lengths >= 10.
	var short, long int64
	for l, c := range ideal.OccurrencesByLength {
		if l <= 4 {
			short += c
		} else if l >= 10 {
			long += c
		}
	}
	if short <= long {
		t.Errorf("short repeats (%d) do not dominate long ones (%d)", short, long)
	}
}

// TestAnalyzePin pins both §2.2 estimates of one fixed baseline build:
// the Table 1 totals, the Figure 3 length histograms and the top repeats.
// Regenerate (deliberately) with `go test ./internal/outline -update`.
func TestAnalyzePin(t *testing.T) {
	prof, ok := workload.AppByName("Wechat", 0.05)
	if !ok {
		t.Fatal("no Wechat profile")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	methods := compile(t, app, false)
	var sb strings.Builder
	for _, bounded := range []bool{false, true} {
		a := Analyze(methods, bounded)
		fmt.Fprintf(&sb, "bounded=%t total_words=%d estimated_saved_words=%d\n",
			bounded, a.TotalWords, a.EstimatedSavedWords)
		for _, l := range sortedLengths(a.RepeatFamilies) {
			fmt.Fprintf(&sb, "families length=%d %d\n", l, a.RepeatFamilies[l])
		}
		for _, l := range sortedLengths(a.OccurrencesByLength) {
			fmt.Fprintf(&sb, "occurrences length=%d %d\n", l, a.OccurrencesByLength[l])
		}
		for _, r := range a.Top {
			fmt.Fprintf(&sb, "top length=%d count=%d %08x\n", r.Length, r.Count, r.Words)
		}
	}
	checkGolden(t, "analyze.golden", sb.String())
}

func sortedLengths[V any](m map[int]V) []int {
	lengths := make([]int, 0, len(m))
	for l := range m {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	return lengths
}

func TestCountPatterns(t *testing.T) {
	// Use the paper's app profile: Figure 4's ordering (Java calls most
	// frequent) holds at the evaluated call-site densities.
	prof, ok := workload.AppByName("Wechat", 0.05)
	if !ok {
		t.Fatal("no Wechat profile")
	}
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	methods := compile(t, app, false)
	pc := CountPatterns(methods)
	if pc.JavaCall == 0 || pc.NativeCall == 0 || pc.StackCheck == 0 {
		t.Fatalf("patterns not found: %+v", pc)
	}
	// Figure 4 ordering in the WeChat study: the Java-call pattern is the
	// most frequent, the stack check and the hottest single entrypoint
	// (pAllocObjectResolved) follow at similar magnitude.
	if pc.JavaCall <= pc.StackCheck || pc.JavaCall <= pc.NativeAlloc {
		t.Errorf("java-call pattern should dominate: %+v", pc)
	}
	if pc.NativeAlloc == 0 || pc.NativeAlloc > pc.NativeCall {
		t.Errorf("alloc-pattern accounting broken: %+v", pc)
	}
	// CTO removes every inline pattern instance.
	ctoMethods := compile(t, app, true)
	pcCTO := CountPatterns(ctoMethods)
	if pcCTO.JavaCall != 0 || pcCTO.NativeCall != 0 || pcCTO.StackCheck != 0 {
		t.Errorf("CTO left inline patterns behind: %+v", pcCTO)
	}
}

func TestCTOReducesTextSize(t *testing.T) {
	app, _ := genApp(t, 81, 80)
	plain := link(t, compile(t, app, false), nil)
	cto := link(t, compile(t, app, true), nil)
	if cto.TextBytes() >= plain.TextBytes() {
		t.Errorf("CTO did not shrink text: %d >= %d", cto.TextBytes(), plain.TextBytes())
	}
}

func TestDedupFunctionsAcrossTrees(t *testing.T) {
	app, man := genApp(t, 131, 80)

	mPlain := compile(t, app, true)
	_, sPlain, err := RunCtx(context.Background(), mPlain, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	mDedup := compile(t, app, true)
	blobs, sDedup, err := RunVerifiedCtx(context.Background(), mDedup, Options{Parallel: 8, DedupFunctions: true})
	if err != nil {
		t.Fatal(err)
	}
	if sDedup.OutlinedFunctions >= sPlain.OutlinedFunctions {
		t.Errorf("dedup did not merge any functions: %d >= %d",
			sDedup.OutlinedFunctions, sPlain.OutlinedFunctions)
	}
	if sDedup.NetWordsSaved() <= sPlain.NetWordsSaved() {
		t.Errorf("dedup did not improve savings: %d <= %d",
			sDedup.NetWordsSaved(), sPlain.NetWordsSaved())
	}
	// No two kept blobs share a body.
	seen := map[string]bool{}
	for _, b := range blobs {
		key := bodyKey(b.Code)
		if seen[key] {
			t.Fatal("duplicate bodies survived dedup")
		}
		seen[key] = true
	}
	// Semantics preserved.
	img := link(t, mDedup, blobs)
	for _, entry := range man.Drivers {
		diff(t, app, img, entry, []int64{5, 3})
	}
}

// TestRunRefusesNegativeCounts: a negative tree count is refused with an error and leaves the methods untouched, rather than
// panicking on a negative group count or outlining nothing.
func TestRunRefusesNegativeCounts(t *testing.T) {
	app, _ := genApp(t, 5, 40)
	want := compile(t, app, true)
	for _, opts := range []Options{{Parallel: -1}, {Parallel: -2, DedupFunctions: true}} {
		cms := compile(t, app, true)
		blobs, _, err := RunVerifiedCtx(context.Background(), cms, opts)
		if err == nil || blobs != nil {
			t.Errorf("%+v: %d blobs, err %v; want a refusal", opts, len(blobs), err)
		}
		for i, cm := range cms {
			if !slices.Equal(cm.Code, want[i].Code) {
				t.Fatalf("%+v: method %d rewritten by a refused run", opts, i)
			}
		}
	}
}
