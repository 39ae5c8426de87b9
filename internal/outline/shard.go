package outline

// Sharded repeat detection: the serial suffix-structure stage split into
// DetectShards pieces that fan out on the worker pool.
//
// The paper resolves the global-tree-vs-parallel-trees tension (§3.4.1,
// Table 6) by partitioning the whole problem — each parallel tree selects
// and outlines independently, so repeats spanning trees are lost twice:
// once in detection and once in selection. Shards split only the
// expensive part. Each shard symbolizes and builds a suffix structure over
// a contiguous slice of the group in method order, so concatenating the
// shards' position maps yields one sequence coordinate ordered exactly
// like the unsharded sequence. Candidates are offset into it, merged by
// instruction content, and handed to the one greedy selection of
// outlineGroup. A repeat seen by several shards keeps all its occurrences;
// only a repeat whose occurrences land in different shards with fewer
// than two per shard is lost.

import (
	"context"

	"repro/internal/par"
)

// shardOrdStride prefixes a candidate's detector ordinal with its shard
// index so tie-breaks stay deterministic across shard counts. Sequence
// ordinals are bounded by the sequence length (suffix tree: node index)
// or length*1000 (suffix array), both far under 2^40.
const shardOrdStride = 1 << 40

// shardDetect is one shard's detection product.
type shardDetect struct {
	pos   []position
	cands []repeatCand
	stats Stats
}

// shardCand is one shard-local candidate with its shard's offset into the
// concatenated sequence.
type shardCand struct {
	repeatCand
	base int
}

// detectShards symbolizes and detects the group in opts.DetectShards
// contiguous shards and returns the concatenated position map with every
// candidate in its coordinates. Shard bounds depend only on the group, so
// what is detected never depends on scheduling. With one shard the result
// is the global structure's, untouched.
func detectShards(ctx context.Context, units []Sequence, group []int, opts Options, st *Stats) ([]position, []repeatCand, error) {
	n := min(max(opts.DetectShards, 1), len(group))
	shards, err := par.MapCtx(ctx, opts.Workers, n, func(s int) (shardDetect, error) {
		var sd shardDetect
		seq, pos, err := buildSequence(ctx, units, group[s*len(group)/n:(s+1)*len(group)/n], opts, &sd.stats)
		if err != nil {
			return sd, err
		}
		sd.pos = pos
		sd.stats.SequenceSymbols = len(seq)
		if len(seq) > 0 {
			sd.cands = detectRepeats(seq, opts, &sd.stats)
		}
		return sd, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i := range shards {
		st.foldSlowest(&shards[i].stats)
	}
	if n == 1 {
		return shards[0].pos, shards[0].cands, nil
	}
	var pos []position
	for _, sd := range shards {
		pos = append(pos, sd.pos...)
	}
	return pos, mergeCandidates(units, pos, shards), nil
}

// mergeCandidates unifies the shard-local candidate sets by instruction
// content, in concatenated-sequence coordinates. Shards are folded in
// shard order after the barrier, so the output order — and every merged
// ordinal — is deterministic regardless of how the shard tasks were
// scheduled. Occurrences are materialized lazily, only for candidates
// that survive the benefit cut.
func mergeCandidates(units []Sequence, pos []position, shards []shardDetect) []repeatCand {
	byContent := map[string]int{}
	var out []repeatCand
	var parts [][]shardCand
	base := 0
	for si, sd := range shards {
		for _, c := range sd.cands {
			ord := si*shardOrdStride + c.ord
			key := blobKey(wordsAt(units, pos, base+c.first, c.length))
			i, ok := byContent[key]
			if !ok {
				i = len(out)
				byContent[key] = i
				out = append(out, repeatCand{length: c.length, ord: ord, first: base + c.first})
				parts = append(parts, nil)
			} else if ord < out[i].ord {
				out[i].ord = ord
			}
			out[i].count += c.count
			parts[i] = append(parts[i], shardCand{repeatCand: c, base: base})
		}
		base += len(sd.pos)
	}
	for i := range out {
		ps := parts[i]
		out[i].occurrences = func() []int {
			var occs []int
			for _, p := range ps {
				for _, o := range p.occurrences() {
					occs = append(occs, p.base+o)
				}
			}
			return occs
		}
	}
	return out
}
