package analysis_test

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/a64"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
)

// admitVerdict admits img and renders the verdict: the refusal, or the
// admitted image's call graph.
func admitVerdict(t *testing.T, img *oat.Image) (string, *analysis.CallGraph) {
	t.Helper()
	cg, err := analysis.Admit(context.Background(), img, 0, nil)
	if err != nil {
		return err.Error(), nil
	}
	return "admitted", cg
}

// freshVerdict admits a re-parse of img's bytes, which carries no analysis.
func freshVerdict(t *testing.T, img *oat.Image) (string, *analysis.CallGraph) {
	t.Helper()
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := oat.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return admitVerdict(t, bare)
}

// TestCarriedAnalysisFollowsContent edits an image after Admit attached
// its analysis — one text word, then one metadata record, each in place —
// and requires the verdict a fresh parse of the edited bytes gets. Each
// edit makes the image unsound, so reusing the stale analysis would admit
// it.
func TestCarriedAnalysisFollowsContent(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(t *testing.T, img *oat.Image)
	}{
		{"text-word", func(t *testing.T, img *oat.Image) {
			m := findMethodWith(img, func(i a64.Inst) bool { return i.Op == a64.OpBCond })
			if m < 0 {
				t.Fatal("no conditional branch in any method")
			}
			off := findInst(t, img, m, func(i a64.Inst) bool { return i.Op == a64.OpBCond })
			w := (img.Methods[m].Offset + off) / a64.WordSize
			patched, err := a64.PatchRel(img.Text[w], -1<<18)
			if err != nil {
				t.Fatal(err)
			}
			img.Text[w] = patched
		}},
		{"metadata-record", func(t *testing.T, img *oat.Image) {
			for m := range img.Methods {
				if rels := img.Methods[m].Meta.PCRel; len(rels) > 0 {
					rels[0].TargetOff += a64.WordSize
					return
				}
			}
			t.Fatal("no PC-relative record in any method")
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := buildApp(t, core.CTOLTBO())
			if v, _ := admitVerdict(t, img); v != "admitted" {
				t.Fatalf("clean build refused: %s", v)
			}
			if img.Attachment() == nil {
				t.Fatal("Admit attached no analysis")
			}
			c.edit(t, img)
			got, _ := admitVerdict(t, img)
			want, _ := freshVerdict(t, img)
			if want == "admitted" {
				t.Fatal("the edit leaves the image sound; the test needs an unsound one")
			}
			if got != want {
				t.Errorf("Admit after the edit: %s\nfresh parse of the edited bytes: %s", got, want)
			}
		})
	}
}

// TestConcurrentAdmit admits one image from two goroutines at once and
// computes its lift legality mask: first a debloated image, which carries
// its analysis but no call graph yet, so both goroutines build the lazy
// parts at once; then the same image again; then a bare re-parse, which
// carries nothing. Every verdict, call graph and mask must match a fresh
// parse's. Run it under -race.
func TestConcurrentAdmit(t *testing.T) {
	deb, _, err := analysis.DebloatCtx(context.Background(), buildApp(t, core.CTOLTBO()), analysis.RootSet{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := deb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := oat.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCG := freshVerdict(t, deb)
	if wantCG == nil {
		t.Fatalf("debloated image refused: %s", want)
	}
	wantMask := analysis.LiftFrozen(bare, wantCG)
	for round, img := range []*oat.Image{deb, deb, bare} {
		var wg sync.WaitGroup
		var got [2]string
		var cgs [2]*analysis.CallGraph
		var masks [2][]bool
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cg, err := analysis.Admit(context.Background(), img, 2, nil)
				if err != nil {
					got[g] = err.Error()
					return
				}
				got[g], cgs[g], masks[g] = "admitted", cg, analysis.LiftFrozen(img, cg)
			}()
		}
		wg.Wait()
		for g := range got {
			if got[g] != want || !reflect.DeepEqual(cgs[g], wantCG) || !reflect.DeepEqual(masks[g], wantMask) {
				t.Errorf("round %d, goroutine %d: verdict %q, want %q (call graphs equal: %v, masks equal: %v)",
					round, g, got[g], want, reflect.DeepEqual(cgs[g], wantCG), reflect.DeepEqual(masks[g], wantMask))
			}
		}
	}
}

// TestCarriedAnalysisCollected checks that carrying an analysis does not
// keep an image alive. The analysis points back at its image, so a
// finalizer on the image itself, which sits in that cycle, need never
// run; the finalizer goes on the image's text array instead, which is in
// no cycle and which only the image holds.
func TestCarriedAnalysisCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		img := buildApp(t, core.CTOLTBO())
		if _, err := analysis.Admit(context.Background(), img, 0, nil); err != nil {
			t.Fatal(err)
		}
		if img.Attachment() == nil {
			t.Fatal("Admit attached no analysis")
		}
		runtime.SetFinalizer(&img.Text[0], func(*uint32) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("an image carrying its analysis was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
