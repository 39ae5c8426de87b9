package calibro

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// methodPinScale is the app scale TestMethodPin pins.
const methodPinScale = 0.05

// TestMethodPin pins, for each ladder app at methodPinScale under every
// named configuration, a digest of every compiled method the build
// returns: its code words, its Meta and its StackMap. The IR optimizer,
// the code generator and the outliner all feed these, so a change meant
// to leave the compiler's output alone must leave every line in place.
// Regenerate only on an intended output change:
// go test -run TestMethodPin -update .
func TestMethodPin(t *testing.T) {
	apps := suiteAt(t, methodPinScale)
	var golden strings.Builder
	fmt.Fprintf(&golden, "# sha256 of every method's code words, Meta and StackMap at scale %.2f.\n", methodPinScale)
	for _, ab := range apps {
		for _, cfg := range []string{"baseline", "cto", "ltbo", "plopti", "hfopti"} {
			res := build(t, ab, cfg)
			h := sha256.New()
			for id, cm := range res.Methods {
				fmt.Fprintf(h, "%d %v %+v %+v\n", id, cm.Code, cm.Meta, cm.StackMap)
			}
			fmt.Fprintf(&golden, "%s %s methods=%d %x\n", ab.prof.Name, cfg, len(res.Methods), h.Sum(nil))
		}
	}

	path := filepath.Join("testdata", "method_pin.golden")
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := golden.String(); got != string(want) {
		t.Errorf("compiled methods differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
