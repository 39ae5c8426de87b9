package outline

// Sharded repeat detection: the serial suffix-structure stage split into
// DetectShards pieces that fan out on the worker pool.
//
// The paper resolves the global-tree-vs-parallel-trees tension (§3.4.1,
// Table 6) by partitioning the whole problem — each parallel tree selects
// and outlines independently, so repeats spanning trees are lost twice:
// once in detection and once in selection. This file splits only the
// expensive part. Each shard symbolizes and builds a suffix structure over
// a contiguous slice of the group; the candidates are then lifted out of
// shard-local sequence coordinates into method coordinates (which all
// shards share), merged by instruction content, and handed to ONE global
// greedy selection. A repeat seen by several shards keeps all its
// occurrences; only a repeat whose occurrences land in different shards
// with fewer than two per shard is lost. With one shard the route is
// byte-identical to the global path — selection in method coordinates is
// order-isomorphic to selection in sequence coordinates because repeats
// never contain separators, so every occurrence is a contiguous run of one
// method's words and sequence order equals (group order, word) order.

import (
	"context"
	"sort"
	"time"

	"repro/internal/par"
	"repro/internal/suffixtree"
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

// mergedCand is one repeat family in method coordinates, the union of the
// shard-local candidates with identical instruction content.
type mergedCand struct {
	words  []uint32 // the repeat's instruction words
	length int
	count  int // occurrences summed over the constituent shards
	ord    int // lowest shard-prefixed detector ordinal
	parts  []mergedPart
}

// mergedPart points back into one shard's candidate so occurrences can be
// materialized lazily — only for candidates that survive the benefit cut.
type mergedPart struct {
	shard int
	cand  repeatCand
}

// outlineGroupSharded is the DetectShards >= 2 route of outlineGroup (and,
// under Options.forceSharded, the test route at one shard).
func outlineGroupSharded(ctx context.Context, units []Sequence, group []int, opts Options) ([]outlinedFunc, Stats, error) {
	var st Stats
	n := opts.DetectShards
	if n < 1 {
		n = 1
	}
	if n > len(group) {
		n = len(group)
	}
	if len(group) == 0 {
		return nil, st, nil
	}

	// Contiguous even partition: shard bounds depend only on the group, so
	// the shard a method lands in — and therefore what is detected — never
	// depends on scheduling. Group order (ascending method index) is
	// preserved inside every shard.
	shards, err := par.MapCtx(ctx, opts.Workers, n, func(s int) (*shardDetect, error) {
		sub := group[s*len(group)/n : (s+1)*len(group)/n]
		sd := &shardDetect{}
		seq, pos, err := buildSequence(ctx, units, sub, opts, &sd.stats)
		if err != nil {
			return nil, err
		}
		sd.pos = pos
		sd.stats.SequenceSymbols = len(seq)
		if len(seq) > 0 {
			sd.cands = detectRepeats(seq, opts, &sd.stats)
		}
		return sd, nil
	})
	if err != nil {
		return nil, st, err
	}
	for _, sd := range shards {
		st.SequenceSymbols += sd.stats.SequenceSymbols
		// Shards overlap on the pool: phase totals take the slowest shard,
		// the same fold runPass applies across groups.
		if sd.stats.SepScan > st.SepScan {
			st.SepScan = sd.stats.SepScan
		}
		if sd.stats.Symbolize > st.Symbolize {
			st.Symbolize = sd.stats.Symbolize
		}
		if sd.stats.TreeBuild > st.TreeBuild {
			st.TreeBuild = sd.stats.TreeBuild
		}
		if sd.stats.Detect > st.Detect {
			st.Detect = sd.stats.Detect
		}
	}

	t1 := time.Now()
	funcs := selectMerged(units, shards, mergeCandidates(units, shards), opts)
	st.Detect += time.Since(t1)
	return funcs, st, nil
}

// mergeCandidates unifies the shard-local candidate sets by instruction
// content. Shards are folded in shard order after the barrier, so the
// output order — and every merged ordinal — is deterministic regardless of
// how the shard tasks were scheduled.
func mergeCandidates(units []Sequence, shards []*shardDetect) []*mergedCand {
	byContent := map[string]*mergedCand{}
	var out []*mergedCand
	for si, sd := range shards {
		for _, c := range sd.cands {
			words := make([]uint32, c.length)
			for k := range words {
				p := sd.pos[c.first+k]
				words[k] = units[p.method].Words()[p.word]
			}
			ord := si*shardOrdStride + c.ord
			key := blobKey(words)
			mc := byContent[key]
			if mc == nil {
				mc = &mergedCand{words: words, length: c.length, ord: ord}
				byContent[key] = mc
				out = append(out, mc)
			} else if ord < mc.ord {
				mc.ord = ord
			}
			mc.count += c.count
			mc.parts = append(mc.parts, mergedPart{shard: si, cand: c})
		}
	}
	return out
}

// selectMerged runs the global greedy selection over the merged candidates
// in unit coordinates. It mirrors outlineGroup's sequence-coordinate
// selection exactly: rank by merged benefit (longest first among ties,
// lowest ordinal last), take occurrences in sequence order, skip overlaps
// with anything already outlined, and emit only families that still clear
// the benefit bar with their surviving occurrences.
func selectMerged(units []Sequence, shards []*shardDetect, cands []*mergedCand, opts Options) []outlinedFunc {
	sort.Slice(cands, func(a, b int) bool {
		ba := suffixtree.Benefit(cands[a].length, cands[a].count)
		bb := suffixtree.Benefit(cands[b].length, cands[b].count)
		if ba != bb {
			return ba > bb
		}
		if cands[a].length != cands[b].length {
			return cands[a].length > cands[b].length
		}
		return cands[a].ord < cands[b].ord
	})

	// Lazily built per-method occupancy, the method-coordinate image of the
	// global path's taken[] over sequence positions.
	taken := map[int][]bool{}
	var funcs []outlinedFunc
	for _, mc := range cands {
		if suffixtree.Benefit(mc.length, mc.count) < opts.MinBenefit {
			break // sorted by benefit: nothing below can qualify either
		}
		occs := make([]occurrence, 0, mc.count)
		for _, part := range mc.parts {
			pos := shards[part.shard].pos
			for _, o := range part.cand.occurrences() {
				occs = append(occs, occurrence{method: int(pos[o].method), wordOff: int(pos[o].word)})
			}
		}
		// Methods are disjoint across shards and ascend within the group,
		// so (method, word) order is exactly the sequence-position order
		// the global path iterates in.
		sort.Slice(occs, func(i, j int) bool {
			if occs[i].method != occs[j].method {
				return occs[i].method < occs[j].method
			}
			return occs[i].wordOff < occs[j].wordOff
		})
		var chosen []occurrence
		lastMethod, lastEnd := -1, -1
		for _, o := range occs {
			if o.method == lastMethod && o.wordOff < lastEnd {
				continue // overlaps previous occurrence of this repeat
			}
			tk := taken[o.method]
			free := true
			for p := o.wordOff; tk != nil && p < o.wordOff+mc.length; p++ {
				if tk[p] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			chosen = append(chosen, o)
			lastMethod, lastEnd = o.method, o.wordOff+mc.length
		}
		if len(chosen) < 2 || suffixtree.Benefit(mc.length, len(chosen)) < opts.MinBenefit {
			continue
		}
		f := outlinedFunc{words: mc.words, occurrences: chosen}
		for _, o := range chosen {
			tk := taken[o.method]
			if tk == nil {
				tk = make([]bool, len(units[o.method].Words()))
				taken[o.method] = tk
			}
			for p := o.wordOff; p < o.wordOff+mc.length; p++ {
				tk[p] = true
			}
		}
		funcs = append(funcs, f)
	}
	return funcs
}
