package outline

// The neutral detector entry: repeat detection and greedy selection over
// Sequence units, with no compiled-method types anywhere in the signature.
// Run/RunCtx stay the link-time entry (they rewrite methods in place);
// DetectCtx is the half the post-hoc re-outliner shares — it reports what to
// outline and where, and leaves acting on it to the caller.

import (
	"context"
	"fmt"

	"repro/internal/par"
)

// Site is one selected occurrence of a detected repeat, in unit
// coordinates.
type Site struct {
	Unit int // index into the units slice passed to DetectCtx
	Word int // word offset within that unit
}

// Detected is one repeat family the detector chose to outline: the body
// words and every selected, non-overlapping occurrence.
type Detected struct {
	Words []uint32
	Sites []Site
}

// DetectCtx runs repeat detection and selection over the units and
// returns the chosen families. Options are interpreted exactly as in
// RunCtx: Parallel partitions the units round-robin into K independent
// groups, DetectShards shards detection inside each group, and MinLength
// / MinBenefit gate selection. A nil unit is skipped (contributes
// nothing); the result is deterministic for every Workers value. A
// cancelled context stops detection and returns ctx.Err().
func DetectCtx(ctx context.Context, units []Sequence, opts Options) ([]Detected, *Stats, error) {
	opts = opts.withDefaults()
	stats := &Stats{}
	var candidates []int
	for i, u := range units {
		if u != nil {
			candidates = append(candidates, i)
		}
	}
	stats.CandidateMethods = len(candidates)
	if len(candidates) == 0 {
		return nil, stats, nil
	}
	k := opts.Parallel
	if k > len(candidates) {
		k = len(candidates)
	}
	groups := make([][]int, k)
	for idx, ui := range candidates {
		groups[idx%k] = append(groups[idx%k], ui)
	}
	observer := opts.Tracer.PoolObserver("outline.group", func(gi int) string {
		return fmt.Sprintf("tree %d (%d units)", gi, len(groups[gi]))
	})
	type groupResult struct {
		funcs []outlinedFunc
		stats Stats
	}
	results, err := par.MapObsCtx(ctx, opts.Workers, k, observer, func(gi int) (groupResult, error) {
		funcs, st, err := outlineGroup(ctx, units, groups[gi], opts)
		return groupResult{funcs: funcs, stats: st}, err
	})
	if err != nil {
		return nil, stats, err
	}
	var out []Detected
	for _, res := range results {
		stats.SequenceSymbols += res.stats.SequenceSymbols
		// Groups overlap on the pool: phase totals take the slowest group,
		// the same fold runPass applies.
		if res.stats.SepScan > stats.SepScan {
			stats.SepScan = res.stats.SepScan
		}
		if res.stats.Symbolize > stats.Symbolize {
			stats.Symbolize = res.stats.Symbolize
		}
		if res.stats.TreeBuild > stats.TreeBuild {
			stats.TreeBuild = res.stats.TreeBuild
		}
		if res.stats.Detect > stats.Detect {
			stats.Detect = res.stats.Detect
		}
		for _, f := range res.funcs {
			d := Detected{Words: f.words}
			for _, occ := range f.occurrences {
				d.Sites = append(d.Sites, Site{Unit: occ.method, Word: occ.wordOff})
			}
			out = append(out, d)
			stats.OutlinedFunctions++
			stats.OutlinedOccurrences += len(d.Sites)
		}
	}
	return out, stats, nil
}
