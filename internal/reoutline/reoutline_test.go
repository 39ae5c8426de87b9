package reoutline_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/emu"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

func ladderScale() float64 {
	if testing.Short() {
		return 0.03
	}
	return 0.12
}

// diffRuns runs a script against the reference interpreter and an image,
// failing on any observable divergence — the acceptance check behind
// every binary rewrite in this repo.
func diffRuns(t *testing.T, what string, app *dex.App, img *oat.Image, runs []workload.Run) {
	t.Helper()
	for i, run := range runs {
		ip := &hgraph.Interp{App: app, MaxDepth: 10_000}
		want, err := ip.Run(run.Entry, run.Args[:])
		if err != nil {
			t.Fatalf("%s: run %d: interp: %v", what, i, err)
		}
		got, err := emu.New(img).Run(run.Entry, run.Args[:])
		if err != nil {
			t.Fatalf("%s: run %d: emu: %v", what, i, err)
		}
		if got.Ret != want.Ret || got.Exc != want.Exc || !reflect.DeepEqual(got.Log, want.Log) {
			t.Errorf("%s: run %d (m%d): ret=%d exc=%v log=%v, want ret=%d exc=%v log=%v",
				what, i, run.Entry, got.Ret, got.Exc, got.Log, want.Ret, want.Exc, want.Log)
		}
	}
}

// requireIdempotent re-runs the pass on its own output and demands a
// byte-identical image: lifting a re-outlined image inlines exactly the
// bodies the first pass created, so the detector reproduces them and the
// relink puts every region back where it was.
func requireIdempotent(t *testing.T, what string, out *oat.Image, cfg reoutline.Config) {
	t.Helper()
	out2, st2, err := reoutline.RunCtx(context.Background(), out, cfg)
	if err != nil {
		t.Fatalf("%s: second reoutline: %v", what, err)
	}
	b1, err := out.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := out2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("%s: reoutline is not idempotent: %d -> %d bytes (saved again: %d)",
			what, len(b1), len(b2), st2.Saved())
	}
}

// TestReoutlineGapLadder is the headline acceptance gate: re-outlining a
// build that shipped with link-time outlining disabled must recover at
// least 90%% of what link-time outlining would have saved, on every app
// of the evaluation ladder. It also pins idempotence and behavior
// preservation on every output.
func TestReoutlineGapLadder(t *testing.T) {
	t.Logf("%-10s %12s %12s %12s %9s", "app", "CTOOnly", "CTO+LTBO", "reoutlined", "recovery")
	for _, prof := range workload.Apps(ladderScale()) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			app, man, err := workload.Generate(prof)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.BuildCtx(context.Background(), app, core.CTOOnly())
			if err != nil {
				t.Fatal(err)
			}
			linked, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
			if err != nil {
				t.Fatal(err)
			}
			out, st, err := reoutline.RunCtx(context.Background(), plain.Image, reoutline.Config{})
			if err != nil {
				t.Fatalf("reoutline: %v", err)
			}

			linkSaved := plain.TextBytes() - linked.TextBytes()
			recovery := 1.0
			if linkSaved > 0 {
				recovery = float64(st.Saved()) / float64(linkSaved)
			}
			t.Logf("%-10s %12d %12d %12d %8.1f%%", prof.Name,
				plain.TextBytes(), linked.TextBytes(), out.TextBytes(), 100*recovery)
			if st.Saved() < 0 {
				t.Errorf("reoutline grew text: %d -> %d bytes", st.TextBefore, st.TextAfter)
			}
			if recovery < 0.9 {
				t.Errorf("recovered only %.1f%% of the link-time saving (%d of %d bytes), want >= 90%%",
					100*recovery, st.Saved(), linkSaved)
			}
			if st.TextAfter != out.TextBytes() {
				t.Errorf("stats.TextAfter=%d, image has %d", st.TextAfter, out.TextBytes())
			}

			requireIdempotent(t, prof.Name, out, reoutline.Config{})
			diffRuns(t, prof.Name, app, out, workload.Script(man, 2, 1))
		})
	}
}

// TestReoutlineComposesWithDebloat pins the debloat-then-reoutline
// pipeline the -debloat -reoutline CLI composition runs: the debloated
// image (stub records, removed blobs) must lift, re-outline, and still
// execute the scripted workload unchanged.
func TestReoutlineComposesWithDebloat(t *testing.T) {
	for _, prof := range workload.Apps(ladderScale()) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			app, man, err := workload.Generate(prof)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.BuildCtx(context.Background(), app, core.CTOOnly())
			if err != nil {
				t.Fatal(err)
			}
			deb, _, err := core.DebloatImageCtx(context.Background(), res.Image, core.DebloatConfig{Roots: man.Drivers})
			if err != nil {
				t.Fatalf("debloat: %v", err)
			}
			out, st, err := reoutline.RunCtx(context.Background(), deb, reoutline.Config{})
			if err != nil {
				t.Fatalf("reoutline after debloat: %v", err)
			}
			if st.Saved() < 0 {
				t.Errorf("reoutline grew a debloated image: %d -> %d bytes", st.TextBefore, st.TextAfter)
			}
			requireIdempotent(t, prof.Name, out, reoutline.Config{})
			diffRuns(t, prof.Name, app, out, workload.Script(man, 2, 1))
		})
	}
}

// TestReoutlineMostlyFrozen drives the pass over an adversarial profile
// cranked so most methods freeze (indirect jumps and JNI stubs): the pass
// must stay sound, must not regress size, and must still lift and
// re-outline whatever remains legal.
func TestReoutlineMostlyFrozen(t *testing.T) {
	prof, ok := workload.AppByName("Obfuscated", ladderScale())
	if !ok {
		t.Fatal("Obfuscated profile missing")
	}
	prof.SwitchFrac = 0.5
	prof.NativeFrac = 0.25
	app, man, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOOnly())
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := reoutline.RunCtx(context.Background(), res.Image, reoutline.Config{})
	if err != nil {
		t.Fatalf("reoutline: %v", err)
	}
	if st.MethodsFrozen == 0 {
		t.Error("adversarial profile froze nothing; the test lost its teeth")
	}
	if st.Saved() < 0 {
		t.Errorf("reoutline grew a mostly-frozen image: %d -> %d bytes", st.TextBefore, st.TextAfter)
	}
	t.Logf("frozen %d of %d methods (%d defensive), saved %d bytes",
		st.MethodsFrozen, st.MethodsTotal, st.FrozenDefensive, st.Saved())
	requireIdempotent(t, "Obfuscated", out, reoutline.Config{})
	diffRuns(t, "Obfuscated", app, out, workload.Script(man, 2, 1))
}

// TestReoutlineLinkTimeInputDropsNothing pins the interaction with
// link-time outlined images: every existing outlined function is either
// inlined back and re-created (possibly merged) or retained for a frozen
// caller — never silently lost — and the result must not be larger than
// the link-time image.
func TestReoutlineLinkTimeInput(t *testing.T) {
	prof := workload.Apps(ladderScale())[0]
	app, man, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := reoutline.RunCtx(context.Background(), res.Image, reoutline.Config{})
	if err != nil {
		t.Fatalf("reoutline: %v", err)
	}
	if st.Saved() < 0 {
		t.Errorf("reoutline grew a link-time-outlined image: %d -> %d bytes", st.TextBefore, st.TextAfter)
	}
	diffRuns(t, prof.Name, app, out, workload.Script(man, 2, 1))
}

// TestReoutlineDeterministic pins the worker-width independence contract:
// the output image is byte-identical at every parallelism.
func TestReoutlineDeterministic(t *testing.T) {
	prof := workload.Apps(0.03)[0]
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOOnly())
	if err != nil {
		t.Fatal(err)
	}
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		out, _, err := reoutline.RunCtx(context.Background(), res.Image, reoutline.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := out.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = b
		} else if !bytes.Equal(ref, b) {
			t.Errorf("workers=%d produced a different image", workers)
		}
	}
}

// TestReoutlineRetainsFrozenCallees drives the paths no generated input
// reaches: link-time outlining never outlines from a method the lift mask
// freezes, so on a stock CTO+LTBO build no frozen method calls an
// outlined function. Flagging three of the callers HasIndirectJump (which
// lint accepts on a method without a computed branch) freezes them while
// their outlined callees stay live: those blobs must be retained, the
// detector's re-creations of them must fold back into the retained
// survivors, and the result must lint clean, run the script unchanged,
// and be idempotent. The output hash was pinned before the relink moved
// into the shared image editor.
func TestReoutlineRetainsFrozenCallees(t *testing.T) {
	prof, ok := workload.AppByName("Taobao", 0.03)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, man, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
	freezeCallers(t, img, codegen.SymKindOutlined)
	out, st, err := reoutline.RunCtx(context.Background(), img, reoutline.Config{})
	if err != nil {
		t.Fatalf("reoutline: %v", err)
	}
	if st.BlobsRetained != 14 || st.BlobsDeduped != 9 {
		t.Errorf("retained=%d deduped=%d, want 14 and 9", st.BlobsRetained, st.BlobsDeduped)
	}
	// The stats count what was written: a folded body is not a created one.
	if st.Outline.OutlinedFunctions != st.BlobsCreated {
		t.Errorf("Outline.OutlinedFunctions = %d, want BlobsCreated = %d", st.Outline.OutlinedFunctions, st.BlobsCreated)
	}
	if len(out.Outlined) != st.BlobsCreated+st.BlobsRetained {
		t.Errorf("%d outlined functions in the output, want created %d + retained %d",
			len(out.Outlined), st.BlobsCreated, st.BlobsRetained)
	}
	if fs, _ := analysis.LintCtx(context.Background(), out, 0, nil); len(fs) > 0 {
		t.Errorf("output does not lint clean: %s", fs[0])
	}
	data, err := out.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const want = "f7b95226494c305a9d3aee0cdb309a943ce61374abda0965e0536ee8e7a9a98a"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
		t.Errorf("output hash %x, want %s", sum, want)
	}
	requireIdempotent(t, prof.Name, out, reoutline.Config{})
	diffRuns(t, prof.Name, app, out, workload.Script(man, 2, 1))
}

// freezeCallers flags the first three methods that call an outlined body
// whose symbol has the given kind HasIndirectJump, which lint accepts on
// a method without a computed branch and the lift mask freezes.
func freezeCallers(t *testing.T, img *oat.Image, kind int) {
	t.Helper()
	cg, _ := analysis.BuildCallGraphCtx(context.Background(), img, 0)
	flagged := 0
	for i := range img.Methods {
		for _, e := range cg.Nodes[i].Edges {
			if k, _ := codegen.UnpackSym(e.Sym); e.Kind == analysis.EdgeOutlined && k == kind && flagged < 3 {
				img.Methods[i].Meta.HasIndirectJump = true
				flagged++
				break
			}
		}
	}
	if flagged < 3 {
		t.Fatalf("only %d callers of a %s body to flag", flagged, codegen.SymName(codegen.PackSym(kind, 0)))
	}
	if fs, _ := analysis.LintCtx(context.Background(), img, 0, nil); len(fs) > 0 {
		t.Fatalf("flagged input does not lint clean: %s", fs[0])
	}
}

// TestReoutlineMintsAroundRetained re-outlines an image in which frozen
// methods still call re-outlined bodies: Taobao at 0.03 under CTO+LTBO,
// re-outlined, with three callers of a ReoutlinedFunction flagged
// HasIndirectJump. The retained bodies keep their names, so each new body
// must take an index none of them holds; minting from 0 regardless made
// the relink refuse the image with a duplicate symbol. The input is also
// FuzzLift's committed seed, which -update rewrites.
func TestReoutlineMintsAroundRetained(t *testing.T) {
	prof, ok := workload.AppByName("Taobao", 0.03)
	if !ok {
		t.Fatal("Taobao profile missing")
	}
	app, man, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := reoutline.RunCtx(context.Background(), res.Image, reoutline.Config{})
	if err != nil {
		t.Fatalf("first reoutline: %v", err)
	}
	freezeCallers(t, img, codegen.SymKindReoutlined)

	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	seed := filepath.Join("testdata", "fuzz", "FuzzLift", "retained-reoutlined")
	enc := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if *updateRewrite {
		if err := os.MkdirAll(filepath.Dir(seed), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seed, []byte(enc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(seed); err != nil || string(got) != enc {
		t.Errorf("FuzzLift seed %s does not hold this input (regenerate with -update): %v", seed, err)
	}

	out, st, err := reoutline.RunCtx(context.Background(), img, reoutline.Config{})
	if err != nil {
		t.Fatalf("second reoutline: %v", err)
	}
	if st.BlobsRetained == 0 || st.BlobsCreated == 0 {
		t.Fatalf("retained %d, created %d; the test lost its teeth", st.BlobsRetained, st.BlobsCreated)
	}
	if fs, _ := analysis.LintCtx(context.Background(), out, 0, nil); len(fs) > 0 {
		t.Errorf("output does not lint clean: %s", fs[0])
	}
	requireIdempotent(t, prof.Name, out, reoutline.Config{})
	diffRuns(t, prof.Name, app, out, workload.Script(man, 2, 1))
}
