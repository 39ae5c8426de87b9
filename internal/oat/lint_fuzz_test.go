package oat_test

import (
	"context"
	"testing"

	"repro/internal/a64"
	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/workload"
)

// This file lives outside package oat because it drives the static
// analyzer, which itself imports oat.

// lintFuzzImage builds a small linked image to seed the corpus.
func lintFuzzImage(f *testing.F) *oat.Image {
	f.Helper()
	app, _, err := workload.Generate(workload.Profile{
		Name: "fuzz", Seed: 11, Methods: 25,
		NativeFrac: 0.1, SwitchFrac: 0.1,
	})
	if err != nil {
		f.Fatal(err)
	}
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: true, Optimize: true})
	if err != nil {
		f.Fatal(err)
	}
	img, err := oat.Link(methods, nil)
	if err != nil {
		f.Fatal(err)
	}
	return img
}

// FuzzUnmarshalLint feeds mutated serialized images through the parser
// and the full static analyzer: whatever Unmarshal accepts, AnalyzeCtx must
// process without panicking — every structural defect has to surface as
// a finding, not a crash. This is the analyzer's core robustness
// contract, since its whole purpose is vetting untrusted images.
func FuzzUnmarshalLint(f *testing.F) {
	img := lintFuzzImage(f)
	data, err := img.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// Seed a few targeted corruptions: flipped branch bits, a stomped
	// record table, a truncated text section.
	if len(data) > 512 {
		for _, off := range []int{200, len(data) / 2, len(data) - 64} {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0x40
			f.Add(mut)
		}
		f.Add(data[:len(data)/2])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		parsed, err := oat.Unmarshal(b)
		if err != nil {
			return
		}
		rep, err := analysis.AnalyzeCtx(context.Background(), parsed, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The report must be internally consistent even for garbage: one
		// summary for each well-formed method record (its table slot
		// matches its ID, and it is aligned and inside the text); a
		// malformed record draws a [record] finding instead.
		summarized := map[dex.MethodID]bool{}
		for _, m := range rep.Methods {
			if summarized[m.ID] {
				t.Fatalf("m%d summarized twice", m.ID)
			}
			summarized[m.ID] = true
		}
		for i, m := range parsed.Methods {
			wellFormed := int(m.ID) == i && m.Offset >= 0 && m.Size >= 0 &&
				m.Offset%a64.WordSize == 0 && m.Size%a64.WordSize == 0 && m.Offset+m.Size <= parsed.TextBytes()
			if wellFormed != summarized[dex.MethodID(i)] {
				t.Fatalf("method slot %d (m%d at %d, size %d): well-formed %v, summarized %v",
					i, m.ID, m.Offset, m.Size, wellFormed, summarized[dex.MethodID(i)])
			}
			delete(summarized, dex.MethodID(i))
		}
		for id := range summarized {
			t.Fatalf("summary for m%d, which names no method slot", id)
		}
		for _, fd := range rep.Findings {
			_ = fd.String() // rendering must not panic either
		}
	})
}
