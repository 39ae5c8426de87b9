package analysis_test

import (
	"bytes"
	"context"
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/workload"
)

// FuzzCallGraph feeds mutated serialized images through the parser and
// the interprocedural walk: whatever Unmarshal accepts, call-graph
// construction and reachability must process without panicking, and the
// graph they produce must stay internally consistent — every edge within
// its node, every target within the tables. Structural garbage surfaces
// as findings and conservative nodes, never as a crash. Every parsed
// image also goes through debloat under the default roots, which must
// either refuse it or emit an image that validates and debloats again to
// the same bytes.
func FuzzCallGraph(f *testing.F) {
	app, _, err := workload.Generate(workload.Profile{
		Name: "fuzz", Seed: 11, Methods: 25,
		NativeFrac: 0.1, SwitchFrac: 0.1,
	})
	if err != nil {
		f.Fatal(err)
	}
	res, err := core.BuildCtx(context.Background(), app, core.CTOLTBO())
	if err != nil {
		f.Fatal(err)
	}
	data, err := res.Image.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// Targeted corruptions: a flipped branch bit, a stomped record table,
	// a truncated text section.
	if len(data) > 512 {
		for _, off := range []int{200, len(data) / 2, len(data) - 64} {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x40
			f.Add(mut)
		}
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := oat.Unmarshal(b)
		if err != nil {
			return
		}
		cg, findings := analysis.BuildCallGraphCtx(context.Background(), img, 0)
		if len(cg.Nodes) != len(img.Methods) {
			t.Fatalf("graph covers %d of %d methods", len(cg.Nodes), len(img.Methods))
		}
		if len(cg.Blobs) != len(img.Outlined) {
			t.Fatalf("graph covers %d of %d outlined functions", len(cg.Blobs), len(img.Outlined))
		}
		checkEdges := func(what string, size int, edges []analysis.Edge) {
			for _, e := range edges {
				if e.Off < 0 || e.Off >= size {
					t.Fatalf("%s: edge site +%#x outside its %d-byte region", what, e.Off, size)
				}
				if e.Kind == analysis.EdgeMethod && int(e.Target) >= len(img.Methods) {
					t.Fatalf("%s: edge target m%d outside the %d-entry method table", what, e.Target, len(img.Methods))
				}
			}
		}
		for i, nd := range cg.Nodes {
			checkEdges("method node", nd.Size, nd.Edges)
			if int(nd.ID) != i {
				t.Fatalf("node %d carries ID %d", i, nd.ID)
			}
		}
		for _, bl := range cg.Blobs {
			checkEdges("blob node", bl.Size, bl.Edges)
		}
		for _, fd := range findings {
			_ = fd.String() // rendering must not panic either
		}
		reach := cg.Reachable(analysis.DefaultRoots())
		if err := reach.WriteReport(io.Discard, cg); err != nil {
			t.Fatal(err)
		}
		if err := cg.WriteDump(io.Discard); err != nil {
			t.Fatal(err)
		}

		out, _, err := analysis.DebloatCtx(context.Background(), img, analysis.DefaultRoots(), 0, nil)
		if err != nil {
			return // refused
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("admitted image debloated into an invalid one: %v", err)
		}
		out2, _, err := analysis.DebloatCtx(context.Background(), out, analysis.DefaultRoots(), 0, nil)
		if err != nil {
			t.Fatalf("debloat refused its own output: %v", err)
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
			t.Fatalf("debloat of a debloated image is not byte-identical (%d vs %d bytes)", len(b1), len(b2))
		}
	})
}
