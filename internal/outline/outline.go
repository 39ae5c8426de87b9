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
	// DedupFunctions merges identical outlined-function bodies created by
	// different suffix trees into one copy. The paper accepts the
	// cross-tree duplication as the price of PlOpti (§3.4.1);
	// deduplication recovers part of that loss for one cheap linear pass.
	DedupFunctions bool
	// SymKind is the codegen symbol kind minted for created functions;
	// 0 selects codegen.SymKindOutlined (the link-time path). The post-hoc
	// re-outliner passes codegen.SymKindReoutlined so the provenance of
	// every outlined body survives in the image's symbol table.
	SymKind int
	// Deprecated: Detector is ignored; repeats are always detected with
	// one suffix tree per group.
	Detector DetectorKind
	// Deprecated: DetectShards is ignored; each group is detected as a
	// whole.
	DetectShards int
	// Deprecated: Rounds is ignored; the outliner runs one
	// detect/outline/patch pass, as the paper's LTBO does (§3.3).
	Rounds int
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

// Deprecated: DetectorKind is ignored; it typed the removed Options.Detector
// backend choice.
type DetectorKind int

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
	// time of the whole rewrite fan-out.
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
// Cancellation is cooperative: the group fan-out, the separator scan and
// the per-method rewrite pool check ctx before every task, so a cancelled
// or deadline-expired context stops outlining promptly and returns
// ctx.Err(). A negative Parallel is refused before any work.
func RunCtx(ctx context.Context, methods []*codegen.CompiledMethod, opts Options) ([]oat.Blob, *Stats, error) {
	if opts.Parallel < 0 {
		return nil, &Stats{}, fmt.Errorf("outline: Parallel (%d) must not be negative", opts.Parallel)
	}
	opts = opts.withDefaults()
	blobs, stats, err := runPass(ctx, methods, opts)
	if err != nil {
		return nil, stats, err
	}
	if opts.DedupFunctions {
		blobs = FoldIdentical(methods, blobs, blobs, stats)
	}
	for name, v := range stats.Counters() {
		opts.Tracer.Count("outline."+name, v)
	}
	return blobs, stats, nil
}

// FoldIdentical merges outlined bodies that are byte-identical to one in
// into. Each blob whose body equals that of another symbol in into — the
// first such — is dropped, and its call sites in methods are re-bound to
// that symbol; the kept blobs are returned in order. Passing blobs as
// into merges the duplicates among them into their first copy. Call sites
// carry symbols (displacements bind at link), so the re-binding is a
// symbol rewrite, no patching needed. Each dropped body also leaves st's
// OutlinedFunctions and WordsAdded, so st counts what is written.
func FoldIdentical(methods []*codegen.CompiledMethod, into, blobs []oat.Blob, st *Stats) []oat.Blob {
	if len(into) == 0 || len(blobs) == 0 {
		return blobs
	}
	canon := make(map[string]int, len(into)) // body -> first symbol with it
	for _, b := range into {
		key := bodyKey(b.Code)
		if _, ok := canon[key]; !ok {
			canon[key] = b.Sym
		}
	}
	remap := map[int]int{}
	var kept []oat.Blob
	for _, b := range blobs {
		if sym, ok := canon[bodyKey(b.Code)]; ok && sym != b.Sym {
			remap[b.Sym] = sym
			st.OutlinedFunctions--
			st.WordsAdded -= len(b.Code)
			continue
		}
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

// bodyKey is a map key holding a body's words.
func bodyKey(words []uint32) string {
	b := make([]byte, 4*len(words))
	for i, w := range words {
		b[4*i] = byte(w)
		b[4*i+1] = byte(w >> 8)
		b[4*i+2] = byte(w >> 16)
		b[4*i+3] = byte(w >> 24)
	}
	return string(b)
}

// foldSlowest folds the stats of one of several concurrent groups into st:
// symbol counts add, and each phase keeps the slowest group's time, since
// the groups overlap on the pool.
func (st *Stats) foldSlowest(task *Stats) {
	st.SequenceSymbols += task.SequenceSymbols
	st.SepScan = max(st.SepScan, task.SepScan)
	st.Symbolize = max(st.Symbolize, task.Symbolize)
	st.TreeBuild = max(st.TreeBuild, task.TreeBuild)
	st.Detect = max(st.Detect, task.Detect)
}

// runPass performs the detect/outline/patch cycle.
func runPass(ctx context.Context, methods []*codegen.CompiledMethod, opts Options) ([]oat.Blob, *Stats, error) {
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
		calls []callSite
		stats Stats
	}
	observer := opts.Tracer.PoolObserver("outline.group", func(gi int) string {
		return fmt.Sprintf("tree %d (%d methods)", gi, len(groups[gi]))
	})
	results, err := par.MapObsCtx(ctx, opts.Workers, k, observer, func(gi int) (groupResult, error) {
		funcs, calls, st, err := outlineGroup(ctx, units, groups[gi], opts)
		return groupResult{funcs: funcs, calls: calls, stats: st}, err
	})
	if err != nil {
		return nil, stats, err
	}

	// The call-site rewrites, grouped by method in one backing array (a
	// counting sort on the method index): method mi's splices are
	// splices[first[mi]:first[mi+1]]. A method belongs to one group, whose
	// call sites come in sequence order, so each method's splices are
	// already sorted by Start. Every splice shares one bl word; the linker
	// binds it through the splice's Sym.
	first := make([]int, len(methods)+1)
	for _, res := range results {
		for _, c := range res.calls {
			first[c.method+1]++
		}
	}
	for mi := range methods {
		first[mi+1] += first[mi]
	}
	splices := make([]codegen.Splice, first[len(methods)])
	next := append([]int(nil), first[:len(methods)]...)
	bl := []uint32{a64.MustEncode(a64.Inst{Op: a64.OpBl})}

	// Merge deterministically in group order.
	var blobs []oat.Blob
	for gi, res := range results {
		stats.foldSlowest(&res.stats)
		if opts.Tracer != nil {
			opts.Tracer.Instant("outline.group", fmt.Sprintf("tree %d stats", gi), map[string]int64{
				"methods":          int64(len(groups[gi])),
				"sequence_symbols": int64(res.stats.SequenceSymbols),
				"functions":        int64(len(res.funcs)),
				"occurrences":      int64(len(res.calls)),
				"sep_scan_us":      res.stats.SepScan.Microseconds(),
				"symbolize_us":     res.stats.Symbolize.Microseconds(),
				"tree_build_us":    res.stats.TreeBuild.Microseconds(),
				"detect_us":        res.stats.Detect.Microseconds(),
			})
		}
		base := len(blobs)
		for _, f := range res.funcs {
			sym := codegen.PackSym(opts.SymKind, int64(len(blobs)))
			body := append(append([]uint32(nil), f.words...),
				a64.MustEncode(a64.Inst{Op: a64.OpBr, Rn: a64.LR}))
			blobs = append(blobs, oat.Blob{Sym: sym, Code: body})
			stats.OutlinedFunctions++
			stats.WordsAdded += len(body)
			stats.OutlinedOccurrences += f.calls
			stats.WordsRemoved += f.calls * (len(f.words) - 1) // bl replaces the sequence
		}
		for _, c := range res.calls {
			splices[next[c.method]] = codegen.Splice{Start: int(c.word), Len: len(res.funcs[c.fn].words), Words: bl,
				Sym: codegen.PackSym(opts.SymKind, int64(base+int(c.fn)))}
			next[c.method]++
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
		if err := methods[mi].Rewrite(splices[first[mi]:first[mi+1]]); err != nil {
			return fmt.Errorf("outline: %s: %w", methods[mi].M.FullName(), err)
		}
		return nil
	}); err != nil {
		return nil, stats, err
	}
	stats.Rewrite = time.Since(start)
	return blobs, stats, nil
}
