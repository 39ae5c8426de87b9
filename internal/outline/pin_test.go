package outline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// imageBytes builds one app, compiles it fresh (outlining mutates methods
// in place), outlines under opts, links, and serializes.
func imageBytes(t *testing.T, seed int64, methods int, opts Options) []byte {
	t.Helper()
	app, _ := genApp(t, seed, methods)
	cms := compile(t, app, true)
	blobs, _, err := RunVerifiedCtx(context.Background(), cms, opts)
	if err != nil {
		t.Fatal(err)
	}
	img := link(t, cms, blobs)
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOutlineImagePin pins the images the outliner produces on three
// generated apps. The digests were generated by the outliner that still
// had a round loop, so its one pass is held to the bytes the first round
// always produced.
// Regenerate (deliberately) with `go test ./internal/outline -update`.
func TestOutlineImagePin(t *testing.T) {
	var sb strings.Builder
	for _, seed := range []int64{1, 7, 99} {
		data := imageBytes(t, seed, 120, Options{})
		fmt.Fprintf(&sb, "seed=%d %x\n", seed, sha256.Sum256(data))
	}
	checkGolden(t, "shards.golden", sb.String())
}
