// Package outline implements LTBO.2, the linking-time half of Calibro
// (paper §3.3): choosing candidate methods, detecting repeated binary code
// sequences with a suffix tree, outlining them into functions, and patching
// PC-relative instructions — all driven by the metadata collected at
// compilation time (LTBO.1), so no disassembly or heuristic binary analysis
// is ever needed.
//
// It also implements the two production optimizations of §3.4: K-way
// paralleled suffix trees, and hot-function filtering (hot methods
// contribute only their slow paths).
package outline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options controls the outliner.
type Options struct {
	// MinLength is the minimum repeat length in instructions (default 2).
	MinLength int
	// MinBenefit is the minimum Figure 2 benefit, in instructions, for a
	// repeat to be outlined (default 1).
	MinBenefit int
	// Parallel is the number of suffix trees built over disjoint method
	// groups (§3.4.1). 1 builds a single global tree.
	Parallel int
	// Hot marks methods whose non-slow-path code must not be outlined
	// (§3.4.2). Nil disables hot-function filtering.
	Hot map[dex.MethodID]bool
	// Rounds repeats the detect/outline/patch cycle on the rewritten
	// binaries (default 1). Later rounds recover repeats that the greedy
	// non-overlapping selection of earlier rounds fragmented — the
	// multi-round scheme of the iOS outlining line of work the paper
	// builds on. Rounds stop early when a pass creates nothing.
	Rounds int
	// DedupFunctions merges identical outlined-function bodies created by
	// different suffix trees (or rounds) into one copy. The paper accepts
	// the cross-tree duplication as the price of PlOpti (§3.4.1);
	// deduplication recovers part of that loss for one cheap linear pass.
	DedupFunctions bool
	// SymKind is the codegen symbol kind minted for created functions;
	// 0 selects codegen.SymKindOutlined (the link-time path). The post-hoc
	// re-outliner passes codegen.SymKindReoutlined so the provenance of
	// every outlined body survives in the image's symbol table.
	SymKind int
	// Detector selects the repeat-detection backend. The default suffix
	// tree matches the paper; the suffix-array backend finds the identical
	// repeat families with a far smaller memory footprint (the resource
	// the paper's global tree exhausts at production scale).
	Detector DetectorKind
	// DetectShards splits each group's sequence construction and repeat
	// detection into N shards that fan out on the worker pool, merging the
	// per-shard candidate sets by content before the group's one
	// selection. This is the paper's global-structure-vs-parallel-detection
	// tradeoff (Table 6) as a tunable: <= 1 builds the exact global
	// structure per group; N >= 2 trades a little detection power — a
	// repeat whose occurrences all land in different shards is invisible —
	// for a parallel detection stage.
	// Orthogonal to Parallel, which partitions what is *selected over*;
	// DetectShards only partitions what is *detected over*, selection
	// stays global within the group.
	DetectShards int
	// Workers bounds the goroutines the outliner uses for the group
	// fan-out, the per-method separator scans, and the per-method
	// rewrites; <= 0 selects runtime.GOMAXPROCS(0). Distinct from
	// Parallel, which partitions the *input* into K trees and changes
	// what is outlined; Workers changes only scheduling, never output.
	Workers int
	// Tracer, when non-nil, records per-group spans for the tree
	// fan-out, per-method rewrite and verify spans, one instant event
	// per group carrying its tree-build/detect/scan counters, and the
	// final Stats counters. Tracing observes only; output is identical
	// with it on or off.
	Tracer *obs.Tracer
}

// DetectorKind selects a repeat-detection backend.
type DetectorKind int

// Detection backends.
const (
	DetectorSuffixTree DetectorKind = iota
	DetectorSuffixArray
)

func (o Options) withDefaults() Options {
	if o.MinLength == 0 {
		o.MinLength = 2
	}
	if o.MinBenefit == 0 {
		o.MinBenefit = 1
	}
	if o.Parallel == 0 {
		o.Parallel = 1
	}
	if o.Rounds == 0 {
		o.Rounds = 1
	}
	if o.DetectShards == 0 {
		o.DetectShards = 1
	}
	if o.SymKind == 0 {
		o.SymKind = codegen.SymKindOutlined
	}
	return o
}

// Stats reports what the outliner did; the build-time experiment (Table 6)
// reads the phase durations.
type Stats struct {
	CandidateMethods int
	ExcludedIndirect int
	ExcludedNative   int
	HotFiltered      int // hot methods reduced to their slow paths

	// SequenceSymbols counts the symbols the detector was given: the
	// sequence after pruning to the positions a repeat can cover.
	SequenceSymbols     int
	OutlinedFunctions   int
	OutlinedOccurrences int
	WordsRemoved        int // call-site words removed (net of inserted bl)
	WordsAdded          int // outlined function words (bodies + returns)

	// Phase wall clocks. With K parallel trees, SepScan through Detect
	// are the slowest group's time (groups overlap); Rewrite is the wall
	// time of the whole rewrite fan-out. Across rounds they accumulate.
	SepScan   time.Duration // per-method separator scans (inside buildSequence)
	Symbolize time.Duration // sequence symbol interning (serial per group)
	TreeBuild time.Duration
	Detect    time.Duration
	Rewrite   time.Duration
}

// NetWordsSaved is the net text-segment saving in instruction words.
func (s *Stats) NetWordsSaved() int { return s.WordsRemoved - s.WordsAdded }

// Counters flattens the counts (not the durations) into named telemetry
// counters — the bundle the metrics snapshot and the -stats table report.
func (s *Stats) Counters() map[string]int64 {
	return map[string]int64{
		"candidate_methods":    int64(s.CandidateMethods),
		"excluded_indirect":    int64(s.ExcludedIndirect),
		"excluded_native":      int64(s.ExcludedNative),
		"hot_filtered":         int64(s.HotFiltered),
		"sequence_symbols":     int64(s.SequenceSymbols),
		"outlined_functions":   int64(s.OutlinedFunctions),
		"outlined_occurrences": int64(s.OutlinedOccurrences),
		"words_removed":        int64(s.WordsRemoved),
		"words_added":          int64(s.WordsAdded),
	}
}

// RunCtx outlines the compiled methods in place and returns the outlined
// functions as linker blobs. Methods' Code, Meta, StackMap, and Ext are
// rewritten; the caller links with oat.Link(methods, blobs).
//
// Cancellation is cooperative: the group fan-out, sharded detection, the
// separator scan and the per-method rewrite pool check ctx before every
// task, and the round loop checks it between rounds, so a cancelled or
// deadline-expired context stops outlining promptly and returns
// ctx.Err().
func RunCtx(ctx context.Context, methods []*codegen.CompiledMethod, opts Options) ([]oat.Blob, *Stats, error) {
	opts = opts.withDefaults()
	total := &Stats{}
	var blobs []oat.Blob
	for round := 0; round < opts.Rounds; round++ {
		created, stats, err := runPass(ctx, methods, opts, len(blobs))
		if err != nil {
			return nil, total, err
		}
		accumulate(total, stats)
		blobs = append(blobs, created...)
		if len(created) == 0 {
			break
		}
	}
	if opts.DedupFunctions {
		blobs = dedupBlobs(methods, blobs, total)
	}
	for name, v := range total.Counters() {
		opts.Tracer.Count("outline."+name, v)
	}
	return blobs, total, nil
}

// dedupBlobs merges byte-identical outlined functions: call sites of every
// duplicate are redirected to the first copy, and duplicates are dropped.
// Call sites carry symbols (displacements bind at link), so the redirect is
// a symbol rewrite, no patching needed.
func dedupBlobs(methods []*codegen.CompiledMethod, blobs []oat.Blob, total *Stats) []oat.Blob {
	canon := map[string]int{} // body -> canonical symbol
	remap := map[int]int{}
	var kept []oat.Blob
	for _, b := range blobs {
		key := blobKey(b.Code)
		if sym, ok := canon[key]; ok {
			remap[b.Sym] = sym
			total.OutlinedFunctions--
			total.WordsAdded -= len(b.Code)
			continue
		}
		canon[key] = b.Sym
		kept = append(kept, b)
	}
	if len(remap) == 0 {
		return blobs
	}
	for _, cm := range methods {
		for i, e := range cm.Ext {
			if sym, ok := remap[e.Symbol]; ok {
				cm.Ext[i].Symbol = sym
			}
		}
	}
	return kept
}

func blobKey(words []uint32) string {
	b := make([]byte, 4*len(words))
	for i, w := range words {
		b[4*i] = byte(w)
		b[4*i+1] = byte(w >> 8)
		b[4*i+2] = byte(w >> 16)
		b[4*i+3] = byte(w >> 24)
	}
	return string(b)
}

// accumulate folds one pass's stats into the running total. Counts add;
// phase durations add (rounds run sequentially); exclusion counts are
// identical each round and kept from the first.
func accumulate(total, pass *Stats) {
	if total.CandidateMethods == 0 {
		total.CandidateMethods = pass.CandidateMethods
		total.ExcludedIndirect = pass.ExcludedIndirect
		total.ExcludedNative = pass.ExcludedNative
		total.HotFiltered = pass.HotFiltered
		total.SequenceSymbols = pass.SequenceSymbols
	}
	total.OutlinedFunctions += pass.OutlinedFunctions
	total.OutlinedOccurrences += pass.OutlinedOccurrences
	total.WordsRemoved += pass.WordsRemoved
	total.WordsAdded += pass.WordsAdded
	total.SepScan += pass.SepScan
	total.Symbolize += pass.Symbolize
	total.TreeBuild += pass.TreeBuild
	total.Detect += pass.Detect
	total.Rewrite += pass.Rewrite
}

// foldSlowest folds the stats of one of several concurrent tasks (groups
// or shards) into st: symbol counts add, and each phase keeps the slowest
// task's time, since the tasks overlap on the pool.
func (st *Stats) foldSlowest(task *Stats) {
	st.SequenceSymbols += task.SequenceSymbols
	st.SepScan = max(st.SepScan, task.SepScan)
	st.Symbolize = max(st.Symbolize, task.Symbolize)
	st.TreeBuild = max(st.TreeBuild, task.TreeBuild)
	st.Detect = max(st.Detect, task.Detect)
}

// runPass performs one detect/outline/patch cycle.
func runPass(ctx context.Context, methods []*codegen.CompiledMethod, opts Options, symBase int) ([]oat.Blob, *Stats, error) {
	stats := &Stats{}

	// §3.3.1: choose candidate methods.
	var candidates []int
	for i, cm := range methods {
		switch {
		case cm.Meta.IsNative:
			stats.ExcludedNative++
		case cm.Meta.HasIndirectJump:
			stats.ExcludedIndirect++
		default:
			if opts.Hot != nil && opts.Hot[cm.M.ID] {
				stats.HotFiltered++
			}
			candidates = append(candidates, i)
		}
	}
	stats.CandidateMethods = len(candidates)
	if len(candidates) == 0 {
		return nil, stats, nil
	}

	// Adapt the candidates onto the neutral detector input. The slice is
	// indexed like methods, so unit coordinates are method coordinates and
	// the rewrite plans below need no translation.
	units := make([]Sequence, len(methods))
	for _, mi := range candidates {
		cm := methods[mi]
		units[mi] = methodSeq{cm: cm, hot: opts.Hot != nil && opts.Hot[cm.M.ID]}
	}

	// §3.4.1: partition the candidates into K groups evenly.
	k := opts.Parallel
	if k > len(candidates) {
		k = len(candidates)
	}
	groups := make([][]int, k)
	for idx, mi := range candidates {
		groups[idx%k] = append(groups[idx%k], mi)
	}

	type groupResult struct {
		funcs []outlinedFunc
		stats Stats
	}
	observer := opts.Tracer.PoolObserver("outline.group", func(gi int) string {
		return fmt.Sprintf("tree %d (%d methods)", gi, len(groups[gi]))
	})
	results, err := par.MapObsCtx(ctx, opts.Workers, k, observer, func(gi int) (groupResult, error) {
		funcs, st, err := outlineGroup(ctx, units, groups[gi], opts)
		return groupResult{funcs: funcs, stats: st}, err
	})
	if err != nil {
		return nil, stats, err
	}

	// The call-site rewrites, grouped by method in one backing array (a
	// counting sort on the method index): method mi's plans are
	// plans[first[mi]:first[mi+1]], in creation order.
	first := make([]int, len(methods)+1)
	for _, res := range results {
		for _, f := range res.funcs {
			for _, occ := range f.occurrences {
				first[occ.method+1]++
			}
		}
	}
	for mi := range methods {
		first[mi+1] += first[mi]
	}
	plans := make([]rewritePlan, first[len(methods)])
	next := append([]int(nil), first[:len(methods)]...)

	// Merge deterministically in group order.
	var blobs []oat.Blob
	for gi, res := range results {
		stats.foldSlowest(&res.stats)
		if opts.Tracer != nil {
			occ := 0
			for _, f := range res.funcs {
				occ += len(f.occurrences)
			}
			opts.Tracer.Instant("outline.group", fmt.Sprintf("tree %d stats", gi), map[string]int64{
				"methods":          int64(len(groups[gi])),
				"sequence_symbols": int64(res.stats.SequenceSymbols),
				"functions":        int64(len(res.funcs)),
				"occurrences":      int64(occ),
				"sep_scan_us":      res.stats.SepScan.Microseconds(),
				"symbolize_us":     res.stats.Symbolize.Microseconds(),
				"tree_build_us":    res.stats.TreeBuild.Microseconds(),
				"detect_us":        res.stats.Detect.Microseconds(),
			})
		}
		for _, f := range res.funcs {
			sym := codegen.PackSym(opts.SymKind, int64(symBase+len(blobs)))
			body := append(append([]uint32(nil), f.words...),
				a64.MustEncode(a64.Inst{Op: a64.OpBr, Rn: a64.LR}))
			blobs = append(blobs, oat.Blob{Sym: sym, Code: body})
			stats.OutlinedFunctions++
			stats.WordsAdded += len(body)
			for _, occ := range f.occurrences {
				stats.OutlinedOccurrences++
				stats.WordsRemoved += len(f.words) - 1 // bl replaces the sequence
				plans[next[occ.method]] = rewritePlan{start: occ.wordOff, length: len(f.words), sym: sym}
				next[occ.method]++
			}
		}
	}

	// §3.3.3-3.3.4: rewrite the binaries and patch PC-relative
	// instructions, one method at a time. Each rewrite touches only its
	// own method, so the rewrites fan out on the pool; iterating methods
	// in ascending index order makes the first reported error — and the
	// Rewrite timing's attribution — independent of scheduling.
	start := time.Now()
	var order []int
	for mi := range methods {
		if first[mi+1] > first[mi] {
			order = append(order, mi)
		}
	}
	rwObserver := opts.Tracer.PoolObserver("outline.rewrite", func(i int) string {
		return methods[order[i]].M.FullName()
	})
	if err := par.EachObsCtx(ctx, opts.Workers, len(order), rwObserver, func(i int) error {
		mi := order[i]
		if err := rewriteMethod(methods[mi], plans[first[mi]:first[mi+1]]); err != nil {
			return fmt.Errorf("outline: %s: %w", methods[mi].M.FullName(), err)
		}
		return nil
	}); err != nil {
		return nil, stats, err
	}
	stats.Rewrite = time.Since(start)
	return blobs, stats, nil
}

// occurrence locates one selected instance of a repeat.
type occurrence struct {
	method  int // index into methods
	wordOff int // word index within the method's code
}

// outlinedFunc is one function the outliner will emit.
type outlinedFunc struct {
	words       []uint32
	occurrences []occurrence
}

// rewritePlan is one call-site rewrite within a method.
type rewritePlan struct {
	start  int // word index
	length int // words replaced
	sym    int
}
