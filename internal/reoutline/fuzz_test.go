package reoutline_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// FuzzLift feeds mutated serialized images through the whole pass: lift
// either refuses the image (admission or a stage error) or round-trips it
// soundly — the output validates, is no larger, and a second pass over it
// is byte-identical. Whatever the parser accepts must never panic the
// lifter, and a mutation that slips past admission must still come out
// the other side as a structurally sound image.
func FuzzLift(f *testing.F) {
	app, _, err := workload.Generate(workload.Profile{
		Name: "fuzz", Seed: 17, Methods: 20,
		NativeFrac: 0.1, SwitchFrac: 0.1,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, cfg := range []core.Config{core.CTOOnly(), core.CTOLTBO()} {
		res, err := core.BuildCtx(context.Background(), app, cfg)
		if err != nil {
			f.Fatal(err)
		}
		data, err := res.Image.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Targeted corruptions: flipped instruction bits early, mid, and
		// late in the image, and a truncated tail.
		if len(data) > 512 {
			for _, off := range []int{200, len(data) / 2, len(data) - 64} {
				mut := append([]byte(nil), data...)
				mut[off] ^= 0x40
				f.Add(mut)
			}
			f.Add(data[:len(data)/2])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		img, err := oat.Unmarshal(b)
		if err != nil {
			return
		}
		out, st, err := reoutline.RunCtx(context.Background(), img, reoutline.Config{Workers: 2})
		if err != nil {
			return // refused: admission or a downstream stage said no
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("accepted image re-outlined into an invalid one: %v", err)
		}
		if st.Saved() < 0 {
			t.Fatalf("reoutline grew the image: %d -> %d bytes", st.TextBefore, st.TextAfter)
		}
		out2, _, err := reoutline.RunCtx(context.Background(), out, reoutline.Config{Workers: 2})
		if err != nil {
			t.Fatalf("reoutline refused its own output: %v", err)
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
			t.Fatalf("reoutline of a re-outlined image is not byte-identical (%d vs %d bytes)", len(b1), len(b2))
		}
	})
}
