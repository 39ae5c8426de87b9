package outline_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/outline"
	"repro/internal/workload"
)

// TestDetectorByteIdentityPin pins the exact images the outliner produces
// on a fixed ladder slice. The golden file was generated before the
// detector's input was factored behind the Sequence interface, so the
// refactor — and any future change to the detection/selection machinery —
// is held to byte-for-byte identity, not just "tests still pass".
// Regenerate (deliberately) with `go test ./internal/outline -update`.
func TestDetectorByteIdentityPin(t *testing.T) {
	type pinCase struct {
		app  string
		cfg  core.Config
		name string
	}
	plDedup := core.CTOLTBOPl(4)
	plDedup.DedupFunctions = true
	cases := []pinCase{
		{"Wechat", core.CTOLTBO(), "wechat-ltbo"},
		{"Wechat", plDedup, "wechat-plopti4-dedup"},
		{"Taobao", core.CTOLTBOPl(8), "taobao-plopti8"},
	}

	var sb strings.Builder
	for _, c := range cases {
		prof, ok := workload.AppByName(c.app, 0.05)
		if !ok {
			t.Fatalf("unknown app %q", c.app)
		}
		app, _, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.BuildCtx(context.Background(), app, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		data, err := res.Image.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&sb, "%s %s\n", c.name, hex.EncodeToString(sum[:]))
	}

	outline.CheckGolden(t, "identity.golden", sb.String())
}
