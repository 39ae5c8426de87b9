package analysis_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/hgraph"
	"repro/internal/oat"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate golden files")

// buildAppFull generates the corruption-test app and builds it, returning
// the bytecode alongside the image so tests can compare recovered
// structure against generation-time ground truth.
func buildAppFull(t *testing.T, cfg core.Config) (*dex.App, *workload.Manifest, *oat.Image) {
	t.Helper()
	app, man, err := workload.Generate(workload.Profile{
		Name: "lint", Seed: 42, Methods: 40,
		NativeFrac: 0.05, SwitchFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return app, man, res.Image
}

// irCallees is compiler-pipeline ground truth: the invoke targets that
// survive IR optimization and reach the emitter. Raw bytecode is the
// wrong oracle — the optimizer folds constant-guarded branches, so some
// bytecode invokes never make it into the binary. Every ladder
// configuration runs the optimizer (OptimizeIR), so the oracle does too.
func irCallees(t *testing.T, app *dex.App, id dex.MethodID) map[dex.MethodID]bool {
	t.Helper()
	m := app.Methods[id]
	out := map[dex.MethodID]bool{}
	if m.Native {
		return out
	}
	g, err := hgraph.Build(m)
	if err != nil {
		t.Fatalf("m%d: %v", id, err)
	}
	hgraph.Optimize(g)
	for _, b := range g.Blocks {
		for _, in := range b.Insns {
			if in.Op == dex.OpInvoke {
				out[in.Method] = true
			}
		}
	}
	return out
}

// TestCallGraphMatchesBytecode pins the walk's exactness on clean builds:
// the recovered method-call edges of every method under every ladder
// configuration equal its bytecode invoke targets — no misses (soundness)
// and no spurious edges (precision) — and nothing is left unresolved.
func TestCallGraphMatchesBytecode(t *testing.T) {
	for _, c := range ladderConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			app, _, img := buildAppFull(t, c.cfg)
			cg, findings := analysis.BuildCallGraphCtx(context.Background(), img, 0)
			for _, f := range findings {
				if f.Severity >= analysis.SevWarn {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for id := range img.Methods {
				nd := cg.Nodes[id]
				if nd.Corrupt {
					t.Fatalf("m%d marked corrupt on a clean build", id)
				}
				if nd.Unknown {
					t.Errorf("m%d has an unresolved edge on a clean build", id)
				}
				want := irCallees(t, app, dex.MethodID(id))
				got := cg.MethodCallees(dex.MethodID(id))
				if len(got) != len(want) {
					t.Errorf("m%d: recovered %d callees, bytecode has %d", id, len(got), len(want))
					continue
				}
				for _, callee := range got {
					if !want[callee] {
						t.Errorf("m%d: spurious edge to m%d", id, callee)
					}
				}
			}
		})
	}
}

// TestCallGraphDeterminism pins satellite 1 for the new passes: the graph
// dump and the findings are byte-identical across worker widths.
func TestCallGraphDeterminism(t *testing.T) {
	_, _, img := buildAppFull(t, core.CTOLTBOPl(4))
	var dumps [3]bytes.Buffer
	var finds [3][]analysis.Finding
	for i, workers := range []int{1, 3, 8} {
		cg, fs := analysis.BuildCallGraphCtx(t.Context(), img, workers)
		if err := cg.WriteDump(&dumps[i]); err != nil {
			t.Fatal(err)
		}
		finds[i] = fs
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal(dumps[0].Bytes(), dumps[i].Bytes()) {
			t.Errorf("dump differs between 1 worker and %d workers", []int{1, 3, 8}[i])
		}
		if len(finds[0]) != len(finds[i]) {
			t.Fatalf("finding count differs across widths: %d vs %d", len(finds[0]), len(finds[i]))
		}
		for j := range finds[0] {
			if finds[0][j] != finds[i][j] {
				t.Errorf("finding %d differs across widths: %v vs %v", j, finds[0][j], finds[i][j])
			}
		}
	}
}

// TestAnalyzeDeterminism pins satellite 1 for the legacy pass: the full
// report's findings are identical across worker widths (the sort at the
// boundary, not scheduling luck, fixes the order).
func TestAnalyzeDeterminism(t *testing.T) {
	img := buildApp(t, core.CTOLTBO())
	// Corrupt a couple of words so there are findings to order.
	img.Text[len(img.Text)/2] = 0xFFFFFFFF
	img.Text[len(img.Text)/3] = 0xFFFFFFFF
	base := analyze(t, img, 1).Findings
	if len(base) == 0 {
		t.Fatal("corruption produced no findings")
	}
	for _, workers := range []int{2, 5, 16} {
		got := analyze(t, img, workers).Findings
		if len(got) != len(base) {
			t.Fatalf("worker width %d: %d findings, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Errorf("worker width %d: finding %d = %v, want %v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestCallGraphCorruptRecord extends the corrupt-image degradation
// contract to call-graph construction: a truncated record must surface as
// a finding and a conservative node, never a panic — and reachability
// over it must refuse to classify anything dead.
func TestCallGraphCorruptRecord(t *testing.T) {
	_, man, img := buildAppFull(t, core.CTOLTBO())
	img.Methods[5].Size = img.TextBytes() * 2 // truncated/overflowing record
	cg, findings := analysis.BuildCallGraphCtx(context.Background(), img, 0)
	var recordFinding bool
	for _, f := range findings {
		if f.Rule == analysis.RuleRecord && f.Severity == analysis.SevError {
			recordFinding = true
		}
	}
	if !recordFinding {
		t.Error("truncated record produced no record finding")
	}
	if !cg.Nodes[5].Corrupt {
		t.Error("truncated record's node not marked corrupt")
	}
	reach := cg.Reachable(analysis.RootSet{Methods: man.Drivers})
	if !reach.Imprecise {
		t.Error("reachability over a corrupt image claims precision")
	}
	for i, live := range reach.LiveMethods {
		if !live && img.Methods[i].Size > 0 {
			t.Errorf("m%d classified dead on an imprecise analysis", i)
		}
	}
	if _, _, err := analysis.DebloatCtx(context.Background(), img, analysis.RootSet{Methods: man.Drivers}, 0, nil); err == nil {
		t.Error("debloat accepted a corrupt image")
	}
}

// TestCallGraphStompedWord checks per-site degradation: an undecodable
// word inside one method degrades that method's edges, not the process.
func TestCallGraphStompedWord(t *testing.T) {
	_, _, img := buildAppFull(t, core.CTOLTBO())
	img.Text[img.Methods[4].Offset/4] = 0xFFFFFFFF
	cg, _ := analysis.BuildCallGraphCtx(context.Background(), img, 0)
	if len(cg.Nodes) != len(img.Methods) {
		t.Fatalf("graph covers %d of %d methods", len(cg.Nodes), len(img.Methods))
	}
}

// TestReachabilityZeroFalsePositives is the acceptance guarantee the
// debloat loop rests on: every method the optimized IR can reach from
// the drivers — a superset of what any run of the hgraph differential
// tests exercises — must be classified live by the binary-level analysis.
func TestReachabilityZeroFalsePositives(t *testing.T) {
	for _, c := range ladderConfigs() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			app, man, img := buildAppFull(t, c.cfg)
			cg, _ := analysis.BuildCallGraphCtx(context.Background(), img, 0)
			reach := cg.Reachable(analysis.RootSet{Methods: man.Drivers})

			// IR-level closure from the drivers: a superset of anything the
			// hgraph interpreter can exercise at run time.
			live := map[dex.MethodID]bool{}
			var work []dex.MethodID
			for _, d := range man.Drivers {
				live[d] = true
				work = append(work, d)
			}
			for len(work) > 0 {
				id := work[len(work)-1]
				work = work[:len(work)-1]
				for callee := range irCallees(t, app, id) {
					if !live[callee] {
						live[callee] = true
						work = append(work, callee)
					}
				}
			}
			for id := range live {
				if !reach.LiveMethods[id] {
					t.Errorf("m%d is IR-reachable but classified dead", id)
				}
			}
		})
	}
}

// TestCallGraphGolden pins the dump format and the recovered structure of
// one ladder app end to end. Regenerate with -update on an intentional
// change.
func TestCallGraphGolden(t *testing.T) {
	prof := workload.Apps(0.03)[0]
	app, _, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		t.Fatal(err)
	}
	cg, _ := analysis.BuildCallGraphCtx(context.Background(), res.Image, 0)
	var buf bytes.Buffer
	if err := cg.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "callgraph_golden.txt")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("call-graph dump drifted from golden file (regenerate with -update)\ngot %d bytes, want %d", buf.Len(), len(want))
	}
}
