package reoutline_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

var updateRewrite = flag.Bool("update", false, "rewrite the image-rewriter byte-identity golden file and the committed FuzzLift seed")

// TestRewriteByteIdentityPin pins the exact bytes of every image the three
// layout paths emit — the linker (CTOOnly and CTO+LTBO builds), debloat
// (roots = the manifest's drivers), reoutline, and debloat followed by
// reoutline (stub records) — over the six ladder apps plus the
// adversarial Obfuscated profile. Any change to how an image is laid out
// or relocated is held to byte-for-byte identity, not just "tests still
// pass". Regenerate (deliberately) with `go test ./internal/reoutline -update`.
func TestRewriteByteIdentityPin(t *testing.T) {
	const scale = 0.03
	profs := workload.Apps(scale)
	obf, ok := workload.AppByName("Obfuscated", scale)
	if !ok {
		t.Fatal("Obfuscated profile missing")
	}
	profs = append(profs, obf)

	var sb strings.Builder
	pin := func(name string, img *oat.Image) {
		data, err := img.Marshal()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&sb, "%s %s\n", name, hex.EncodeToString(sum[:]))
	}
	for _, prof := range profs {
		app, man, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		roots := analysis.RootSet{Methods: man.Drivers}
		var ctoDebloated *oat.Image
		for _, c := range []struct {
			name string
			cfg  core.Config
		}{{"cto", core.CTOOnly()}, {"ltbo", core.CTOLTBO()}} {
			name := prof.Name + "-" + c.name
			res, err := core.BuildCtx(context.Background(), app, c.cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pin(name, res.Image)
			deb, _, err := analysis.DebloatCtx(context.Background(), res.Image, roots, 0, nil)
			if err != nil {
				t.Fatalf("%s: debloat: %v", name, err)
			}
			pin(name+"-debloat", deb)
			re, _, err := reoutline.RunCtx(context.Background(), res.Image, reoutline.Config{})
			if err != nil {
				t.Fatalf("%s: reoutline: %v", name, err)
			}
			pin(name+"-reoutline", re)
			if ctoDebloated == nil {
				ctoDebloated = deb
			}
		}
		both, _, err := reoutline.RunCtx(context.Background(), ctoDebloated, reoutline.Config{})
		if err != nil {
			t.Fatalf("%s: reoutline after debloat: %v", prof.Name, err)
		}
		pin(prof.Name+"-cto-debloat-reoutline", both)
	}

	golden := filepath.Join("testdata", "rewrite_identity.golden")
	if *updateRewrite {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if sb.String() != string(want) {
		t.Errorf("rewritten images changed:\n got:\n%s want:\n%s", sb.String(), string(want))
	}
}
