package outline

import (
	"cmp"
	"context"
	"slices"
	"time"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/par"
	"repro/internal/suffixarray"
	"repro/internal/suffixtree"
)

// Sequence is one unit of detector input: a run of instruction words plus
// the legality mask that marks positions no repeat may include. The
// outliner adapts each candidate *codegen.CompiledMethod onto it
// (methodSeq); the §2.2 redundancy analysis adapts methods with its own,
// idealized mask (dataSeq); tests substitute fakes.
type Sequence interface {
	// Words returns the unit's instruction words. The slice must stay
	// valid and unchanged for the duration of the detection pass.
	Words() []uint32
	// Mask reports, per word, whether the position is a separator — a
	// word that may not take part in any repeat (embedded data, control
	// transfers, PC-relative sites and targets, and so on). len(Mask())
	// must equal len(Words()).
	Mask() []bool
}

// methodSeq adapts a compiled method (plus its hot-filtering state) onto
// the neutral Sequence interface.
type methodSeq struct {
	cm  *codegen.CompiledMethod
	hot bool
}

func (m methodSeq) Words() []uint32 { return m.cm.Code }
func (m methodSeq) Mask() []bool    { return separatorWords(m.cm, m.hot) }

// position maps one sequence index back to a unit word.
type position struct {
	method int32 // index into the units slice; -1 for separators
	word   int32 // word index within the unit's words
}

// separatorWords computes, for one method, which word positions may not
// take part in any repeat. The compile-time metadata (§3.2) makes this
// exact — no disassembly heuristics:
//
//   - embedded data (literal pools, jump tables);
//   - control-transfer instructions (terminators and calls): an outlined
//     body must be single-entry-single-exit straight-line code, and a bl
//     inside it would clobber the x30 the outlined function returns with;
//   - PC-relative instructions and, crucially, their *targets*: an
//     instruction that is a branch target must survive the rewrite at an
//     addressable offset;
//   - unresolved call sites (bl bound at link time);
//   - everything outside slow paths when the method is hot (§3.4.2);
//   - any instruction reading or writing the link register;
//   - any word that does not decode (defense in depth; with LTBO.1
//     metadata this only triggers for data already excluded).
func separatorWords(cm *codegen.CompiledMethod, hot bool) []bool {
	n := len(cm.Code)
	sep := make([]bool, n)
	markByte := func(off int) {
		if off%a64.WordSize == 0 && off/a64.WordSize < n {
			sep[off/a64.WordSize] = true
		}
	}
	for _, t := range cm.Meta.Terminators {
		markByte(t)
	}
	for _, r := range cm.Meta.PCRel {
		markByte(r.InstOff)
		markByte(r.TargetOff)
	}
	for _, e := range cm.Ext {
		markByte(e.InstOff)
	}
	for _, d := range cm.Meta.EmbeddedData {
		for off := d.Start; off < d.End; off += a64.WordSize {
			markByte(off)
		}
	}
	if hot {
		inSlow := make([]bool, n)
		for _, s := range cm.Meta.Slowpaths {
			for off := s.Start; off < s.End; off += a64.WordSize {
				if off/a64.WordSize < n {
					inSlow[off/a64.WordSize] = true
				}
			}
		}
		for w := 0; w < n; w++ {
			if !inSlow[w] {
				sep[w] = true
			}
		}
	}
	for w := 0; w < n; w++ {
		if sep[w] {
			continue
		}
		inst, ok := a64.Decode(cm.Code[w])
		if !ok || usesLR(inst) {
			sep[w] = true
		}
	}
	return sep
}

// usesLR reports whether any register field of the instruction names x30.
// Over-approximate: fields unused by the op are zero and never 30.
func usesLR(i a64.Inst) bool {
	return i.Rd == a64.LR || i.Rn == a64.LR || i.Rm == a64.LR || i.Rt2 == a64.LR
}

// symbolizer interns instruction words into dense symbols and mints unique
// separator symbols from the same counter, so the two can never collide.
// It also records, per symbol, whether the symbol has been seen more than
// once: a separator never has, and a word has once interned a second time.
//
// The dictionary is an open-addressing (linear probing) table of
// (word, symbol+1) pairs, symbol+1 == 0 marking an empty slot, so every
// uint32 word is a valid key. It grows by doubling at half load and never
// deletes. Symbols are minted in first-seen order exactly as a map would,
// so the table changes the cost of interning, never the sequence.
type symbolizer struct {
	slots []symSlot
	shift uint // 32 - log2(len(slots)), for Fibonacci hashing
	used  int
	// repeated is indexed by symbol, so its length is the next symbol.
	repeated []bool
}

type symSlot struct {
	word uint32
	id1  uint32 // symbol + 1; 0 marks an empty slot
}

// symbolizerLogSize is the initial table size, 2^10 slots: 512 distinct
// words before the first growth.
const symbolizerLogSize = 10

// newSymbolizer returns an empty symbolizer with room for symbols symbols
// before its per-symbol record grows.
func newSymbolizer(symbols int) *symbolizer {
	return &symbolizer{
		slots:    make([]symSlot, 1<<symbolizerLogSize),
		shift:    32 - symbolizerLogSize,
		repeated: make([]bool, 0, symbols),
	}
}

// symHome is w's first probe slot in a table of 2^(32-shift) slots.
func symHome(w uint32, shift uint) uint32 { return (w * 0x9E3779B9) >> shift }

func (s *symbolizer) word(w uint32) uint32 {
	mask := uint32(len(s.slots) - 1)
	for i := symHome(w, s.shift); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.id1 == 0 {
			id := uint32(len(s.repeated))
			s.repeated = append(s.repeated, false)
			sl.word, sl.id1 = w, id+1
			if s.used++; 2*s.used > len(s.slots) {
				s.grow()
			}
			return id
		}
		if sl.word == w {
			s.repeated[sl.id1-1] = true
			return sl.id1 - 1
		}
	}
}

// grow doubles the table and reinserts every binding.
func (s *symbolizer) grow() {
	old := s.slots
	s.slots = make([]symSlot, 2*len(old))
	s.shift--
	mask := uint32(len(s.slots) - 1)
	for _, sl := range old {
		if sl.id1 == 0 {
			continue
		}
		i := symHome(sl.word, s.shift)
		for s.slots[i].id1 != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// separator mints a fresh symbol, seen once so far.
func (s *symbolizer) separator() uint32 {
	id := uint32(len(s.repeated))
	s.repeated = append(s.repeated, false)
	return id
}

// buildSequence symbolizes a group of units into one sequence and prunes
// it to what can repeat (pruneUnrepeatable). The per-unit mask scans
// (metadata walks plus a decode of every word) are independent and fan
// out on the worker pool; the symbol interning that follows is inherently
// sequential — symbol identity depends on first-seen order — and stays a
// serial walk in group order, so the sequence is identical for every
// worker count.
//
// The two phases are timed into st (SepScan, Symbolize, the pruning
// included) rather than traced as spans: this pool is nested inside a
// group task that already owns a worker lane, and spans from a nested
// pool would interleave with the outer tasks on the same lanes. The
// per-group instant event carries these durations instead. A cancelled
// scan returns ctx.Err() and no sequence.
func buildSequence(ctx context.Context, units []Sequence, group []int, opts Options, st *Stats) ([]uint32, []position, error) {
	t0 := time.Now()
	seps, err := par.MapCtx(ctx, opts.Workers, len(group), func(i int) ([]bool, error) {
		return units[group[i]].Mask(), nil
	})
	st.SepScan = time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	defer func() { st.Symbolize = time.Since(t1) }()
	// One word per code word plus one separator per unit: exact sizes,
	// so the serial symbolize walk never reallocates.
	total := len(group)
	for _, mi := range group {
		total += len(units[mi].Words())
	}
	sym := newSymbolizer(total)
	seq := make([]uint32, 0, total)
	pos := make([]position, 0, total)
	for gi, mi := range group {
		sep := seps[gi]
		for w, word := range units[mi].Words() {
			if sep[w] {
				seq = append(seq, sym.separator())
				pos = append(pos, position{method: -1})
			} else {
				seq = append(seq, sym.word(word))
				pos = append(pos, position{method: int32(mi), word: int32(w)})
			}
		}
		// Method boundary.
		seq = append(seq, sym.separator())
		pos = append(pos, position{method: -1})
	}
	if pruneSequences {
		seq, pos = pruneUnrepeatable(seq, pos, sym.repeated, max(opts.MinLength, 1))
	}
	return seq, pos, nil
}

// pruneSequences is cleared only by tests, which detect over the full
// sequence as the reference the pruned one must match.
var pruneSequences = true

// pruneUnrepeatable compacts seq and pos in place to the positions a
// repeat of at least minLen symbols can cover, plus one terminator per
// kept run. A symbol seen once (every separator, and a word that occurs
// once) cannot be part of any repeat, so the symbols seen more than once
// form maximal runs between such unique symbols, and every occurrence of
// every repeat lies inside one run. A run shorter than minLen holds no
// repeat long enough to report and is dropped with the unique symbol
// after it. A kept run keeps that symbol as its terminator: no two
// suffixes can match across it, so every suffix comparison stops where it
// stopped in the full sequence, and the repeats, their counts, their
// occurrences mapped back through pos, and the detectors' relative
// ordinals are those of the full sequence (the suffix array's ordinal,
// first occurrence × 1000 + length, keeps its order while repeats are
// shorter than 1000 symbols). Symbols are not renumbered, which keeps
// every comparison's outcome. seq must end in a unique symbol, as
// buildSequence's closing unit boundary does.
func pruneUnrepeatable(seq []uint32, pos []position, repeated []bool, minLen int) ([]uint32, []position) {
	n, run := 0, 0 // run is where the current run starts in the output
	for i, s := range seq {
		seq[n], pos[n] = s, pos[i]
		n++
		if !repeated[s] {
			// s ends the run seq[run:n-1]: keep both, or drop both.
			if n-1-run < minLen {
				n = run
			}
			run = n
		}
	}
	return seq[:n], pos[:n]
}

// repeatCand is one detected repeat, detector-agnostic.
type repeatCand struct {
	length, count int
	ord           int          // deterministic tie-break ordinal
	first         int          // one occurrence start, cheap and deterministic
	occurrences   func() []int // start positions in the sequence
}

// detectRepeats runs the configured detection backend.
func detectRepeats(seq []uint32, opts Options, st *Stats) []repeatCand {
	var cands []repeatCand
	switch opts.Detector {
	case DetectorSuffixArray:
		t0 := time.Now()
		arr := suffixarray.Build(seq)
		st.TreeBuild = time.Since(t0)
		t1 := time.Now()
		for _, rep := range arr.Repeats(opts.MinLength, 2) {
			rep := rep
			cands = append(cands, repeatCand{
				length: rep.Length, count: rep.Count,
				ord:         rep.Occurrences()[0]*1000 + rep.Length,
				first:       rep.First(),
				occurrences: rep.Occurrences,
			})
		}
		st.Detect = time.Since(t1)
	default: // DetectorSuffixTree
		t0 := time.Now()
		tree := suffixtree.Build(seq)
		st.TreeBuild = time.Since(t0)
		t1 := time.Now()
		for _, rep := range tree.Repeats(opts.MinLength, 2) {
			rep := rep
			cands = append(cands, repeatCand{
				length: rep.Length, count: rep.Count, ord: rep.Node,
				first:       tree.FirstOccurrence(rep.Node),
				occurrences: func() []int { return tree.Occurrences(rep.Node) },
			})
		}
		st.Detect = time.Since(t1)
	}
	return cands
}

// wordsAt reads length instruction words starting at sequence position
// start through the position map. Repeats never contain separators, so
// every position in the run maps to a unit word.
func wordsAt(units []Sequence, pos []position, start, length int) []uint32 {
	words := make([]uint32, length)
	for k := range words {
		p := pos[start+k]
		words[k] = units[p.method].Words()[p.word]
	}
	return words
}

// rankCandidates sorts repeats by potential benefit, longest first among
// ties, the detector's ordinal as the deterministic tie-break. The ordinal
// is unique per candidate, so this is a total order and the ranking cannot
// depend on the sort algorithm.
func rankCandidates(repeats []repeatCand) {
	slices.SortFunc(repeats, func(a, b repeatCand) int {
		return cmp.Or(
			cmp.Compare(suffixtree.Benefit(b.length, b.count), suffixtree.Benefit(a.length, a.count)),
			cmp.Compare(b.length, a.length),
			cmp.Compare(a.ord, b.ord))
	})
}

// outlineGroup runs detection and selection over one unit group and
// returns the functions to create (with their chosen occurrences). It is
// the one route for every DetectShards value: detectShards returns the
// candidates in one sequence coordinate, and a single greedy selection
// runs over it. With one shard that is the paper's global structure.
func outlineGroup(ctx context.Context, units []Sequence, group []int, opts Options) ([]outlinedFunc, Stats, error) {
	var st Stats
	pos, repeats, err := detectShards(ctx, units, group, opts, &st)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	rankCandidates(repeats)

	taken := make([]bool, len(pos))
	var funcs []outlinedFunc
	var chosen []int // reused across repeats
	for _, rep := range repeats {
		if suffixtree.Benefit(rep.length, rep.count) < opts.MinBenefit {
			break // sorted by benefit: nothing below can qualify either
		}
		occs := rep.occurrences()
		slices.Sort(occs)
		chosen = chosen[:0]
		lastEnd := -1
		for _, o := range occs {
			if o < lastEnd {
				continue // overlaps previous occurrence of this repeat
			}
			free := true
			for p := o; p < o+rep.length; p++ {
				if taken[p] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			chosen = append(chosen, o)
			lastEnd = o + rep.length
		}
		if len(chosen) < 2 || suffixtree.Benefit(rep.length, len(chosen)) < opts.MinBenefit {
			continue
		}
		f := outlinedFunc{
			words:       wordsAt(units, pos, chosen[0], rep.length),
			occurrences: make([]occurrence, 0, len(chosen)),
		}
		for _, o := range chosen {
			for p := o; p < o+rep.length; p++ {
				taken[p] = true
			}
			f.occurrences = append(f.occurrences, occurrence{
				method:  int(pos[o].method),
				wordOff: int(pos[o].word),
			})
		}
		funcs = append(funcs, f)
	}
	st.Detect += time.Since(t1)
	return funcs, st, nil
}
