package outline

import (
	"bytes"
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

// TestDetectShardsPin pins the images the outliner produces at one, two
// and four detection shards, under both detection backends and two
// rounds. The digests were generated from the outliner that still had a
// separate sharded selection, so the single detect-and-select path is
// held to its bytes at every shard count.
// Regenerate (deliberately) with `go test ./internal/outline -update`.
func TestDetectShardsPin(t *testing.T) {
	var sb strings.Builder
	for _, seed := range []int64{1, 7, 99} {
		for _, detector := range []DetectorKind{DetectorSuffixTree, DetectorSuffixArray} {
			for _, shards := range []int{1, 2, 4} {
				data := imageBytes(t, seed, 120, Options{Detector: detector, Rounds: 2, DetectShards: shards})
				fmt.Fprintf(&sb, "seed=%d detector=%d shards=%d %x\n", seed, detector, shards, sha256.Sum256(data))
			}
		}
	}
	checkGolden(t, "shards.golden", sb.String())
}

// TestShardedDeterminism pins the contract for real shard counts: the
// image is byte-identical at every worker width and with several parallel
// trees layered on top.
func TestShardedDeterminism(t *testing.T) {
	base := Options{DetectShards: 4}
	want := imageBytes(t, 3, 150, base)
	for _, workers := range []int{1, 3, 8} {
		opts := base
		opts.Workers = workers
		if got := imageBytes(t, 3, 150, opts); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sharded image differs", workers)
		}
	}
	opts := base
	opts.Parallel = 3
	treed := imageBytes(t, 3, 150, opts)
	again := imageBytes(t, 3, 150, opts)
	if !bytes.Equal(treed, again) {
		t.Fatal("trees+shards image not reproducible")
	}
}

// TestShardedStillOutlines checks the tradeoff stays a tradeoff: sharded
// detection must still find a substantial share of what the global
// structure finds (it can only lose repeats whose occurrences never pair
// up inside one shard).
func TestShardedStillOutlines(t *testing.T) {
	app, _ := genApp(t, 11, 150)
	cms := compile(t, app, true)
	_, globalStats, err := RunCtx(context.Background(), compile(t, app, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, shardStats, err := RunCtx(context.Background(), cms, Options{DetectShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if globalStats.NetWordsSaved() <= 0 {
		t.Fatalf("global path saved nothing (%d words)", globalStats.NetWordsSaved())
	}
	if got, want := shardStats.NetWordsSaved(), globalStats.NetWordsSaved()/2; got < want {
		t.Fatalf("sharded detection saved %d words, want >= %d (global saved %d)",
			got, want, globalStats.NetWordsSaved())
	}
}
