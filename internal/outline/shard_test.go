package outline

import (
	"bytes"
	"context"
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

// TestShardedOneShardMatchesGlobal pins the property that makes
// DetectShards a tunable rather than a fork: the sharded machinery at one
// shard — forced through the merge and the method-coordinate selection —
// serializes to exactly the bytes of the sequence-coordinate global path.
func TestShardedOneShardMatchesGlobal(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		for _, detector := range []DetectorKind{DetectorSuffixTree, DetectorSuffixArray} {
			base := Options{Detector: detector, Rounds: 2}
			global := imageBytes(t, seed, 120, base)

			forced := base
			forced.DetectShards = 1
			forced.forceSharded = true
			sharded := imageBytes(t, seed, 120, forced)

			if !bytes.Equal(global, sharded) {
				t.Fatalf("seed %d detector %d: sharded(1) image differs from global (%d vs %d bytes)",
					seed, detector, len(sharded), len(global))
			}
		}
	}
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
