package outline

import (
	"context"
	"sort"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/suffixtree"
)

// Analysis is the output of the §2.2 redundancy study: the estimated code
// size saving from outlining (Table 1), and the length/frequency shape of
// the repeats (Figure 3).
type Analysis struct {
	TotalWords          int
	EstimatedSavedWords int
	EstimatedReduction  float64 // Table 1's ratio

	// RepeatFamilies counts distinct maximal repeats per length;
	// OccurrencesByLength sums their repeat counts (Figure 3's y-axis
	// against length on x).
	RepeatFamilies      map[int]int
	OccurrencesByLength map[int]int64

	// Top holds the most frequent repeats, most repeated first.
	Top []RepeatInfo
}

// RepeatInfo describes one repeat family.
type RepeatInfo struct {
	Length int
	Count  int
	Words  []uint32
}

// Analyze performs the paper's §2.2 estimation over compiled methods.
// With respectBoundaries=false it reproduces the idealized Table 1 scan
// (whole-binary, only embedded data and method boundaries separate code);
// with true it applies the outliner's full correctness constraints, which
// is what LTBO can actually capture.
func Analyze(methods []*codegen.CompiledMethod, respectBoundaries bool) *Analysis {
	units := make([]Sequence, len(methods))
	group := make([]int, len(methods))
	for i, cm := range methods {
		if respectBoundaries {
			units[i] = methodSeq{cm: cm}
		} else {
			units[i] = dataSeq{cm: cm}
		}
		group[i] = i
	}
	// The study counts repeats of two or more words, over the outliner's
	// detection route. context.TODO never cancels, and cancellation is
	// detectGroup's only error.
	pos, tree, repeats, _ := detectGroup(context.TODO(), units, group, Options{MinLength: 2}, &Stats{})

	a := &Analysis{
		TotalWords:          totalWords(methods),
		RepeatFamilies:      map[int]int{},
		OccurrencesByLength: map[int]int64{},
	}
	if tree == nil {
		return a
	}
	for _, r := range repeats {
		a.RepeatFamilies[r.Length]++
		a.OccurrencesByLength[r.Length] += int64(r.Count)
	}

	// Greedy benefit-ordered non-overlapping selection to estimate
	// achievable savings (Figure 2 model). Unlike the outliner's, it marks
	// a family's occurrences taken before testing whether the family
	// clears the benefit bar, so a rejected family still blocks later
	// ones; DESIGN.md records what that costs the Table 1 estimate.
	rankCandidates(repeats)
	worth := 0 // the ranked repeats with a positive benefit
	for worth < len(repeats) && suffixtree.Benefit(repeats[worth].Length, repeats[worth].Count) >= 1 {
		worth++
	}
	occs := tree.Sweep(repeats[:worth])
	taken := make([]bool, len(pos))
	for k, rep := range repeats[:worth] {
		chosen, lastEnd := 0, -1
		for _, o32 := range occs[k] {
			o := int(o32)
			if o < lastEnd {
				continue
			}
			ok := true
			for p := o; p < o+rep.Length; p++ {
				if taken[p] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen++
			lastEnd = o + rep.Length
			for p := o; p < o+rep.Length; p++ {
				taken[p] = true
			}
		}
		if b := suffixtree.Benefit(rep.Length, chosen); chosen >= 2 && b > 0 {
			a.EstimatedSavedWords += b
		}
	}
	if a.TotalWords > 0 {
		a.EstimatedReduction = float64(a.EstimatedSavedWords) / float64(a.TotalWords)
	}

	// Top repeats by occurrence count (Observation 3 / Figure 4 material).
	sort.Slice(repeats, func(i, j int) bool {
		if repeats[i].Count != repeats[j].Count {
			return repeats[i].Count > repeats[j].Count
		}
		return repeats[i].Length > repeats[j].Length
	})
	for i := 0; i < len(repeats) && i < 20; i++ {
		a.Top = append(a.Top, RepeatInfo{
			Length: repeats[i].Length,
			Count:  repeats[i].Count,
			Words:  wordsAt(units, pos, tree.FirstOccurrence(repeats[i].Node), repeats[i].Length),
		})
	}
	return a
}

// dataSeq is the idealized Table 1 view of a method: only embedded data
// separates code (method boundaries still do, as for every unit).
type dataSeq struct{ cm *codegen.CompiledMethod }

func (d dataSeq) Words() []uint32 { return d.cm.Code }

func (d dataSeq) Mask() []bool {
	sep := make([]bool, len(d.cm.Code))
	for _, r := range d.cm.Meta.EmbeddedData {
		for off := r.Start; off < r.End; off += a64.WordSize {
			if off/a64.WordSize < len(sep) {
				sep[off/a64.WordSize] = true
			}
		}
	}
	return sep
}

func totalWords(methods []*codegen.CompiledMethod) int {
	n := 0
	for _, cm := range methods {
		n += len(cm.Code)
	}
	return n
}

// PatternCounts holds static occurrence counts of the three ART-specific
// patterns of Figure 4. NativeCalls breaks the thread-register pattern
// down by entrypoint offset, matching the paper's per-function counting
// (its example is pAllocObjectResolved).
type PatternCounts struct {
	JavaCall    int // ldr x30, [x0, #entry]; blr x30
	NativeCall  int // ldr x30, [x19, #off]; blr x30 (all offsets)
	NativeAlloc int // the pAllocObjectResolved instance of the above
	StackCheck  int // sub x16, sp, #0x2000; ldr wzr, [x16]
	NativeCalls map[int64]int
}

// CountPatterns scans compiled (pre-CTO) code for the Figure 4 patterns.
func CountPatterns(methods []*codegen.CompiledMethod) PatternCounts {
	pc := PatternCounts{NativeCalls: map[int64]int{}}
	blrLR := a64.MustEncode(a64.Inst{Op: a64.OpBlr, Rn: a64.LR})
	subGuard := a64.MustEncode(a64.Inst{Op: a64.OpSubImm, Sf: true, Rd: a64.IP0, Rn: a64.SP,
		Imm: abi.StackGuard >> 12, Shift12: true})
	ldrWZR := a64.MustEncode(a64.Inst{Op: a64.OpLdrImm, Rd: a64.XZR, Rn: a64.IP0})
	allocOff := dex.NativeAllocObjectResolved.EntrypointOffset()
	for _, cm := range methods {
		for w := 0; w+1 < len(cm.Code); w++ {
			first, ok := a64.Decode(cm.Code[w])
			if !ok {
				continue
			}
			second := cm.Code[w+1]
			switch {
			case second == blrLR && first.Op == a64.OpLdrImm && first.Sf && first.Rd == a64.LR && first.Rn == a64.X0:
				pc.JavaCall++
			case second == blrLR && first.Op == a64.OpLdrImm && first.Sf && first.Rd == a64.LR && first.Rn == a64.TR:
				pc.NativeCall++
				pc.NativeCalls[first.Imm]++
				if first.Imm == allocOff {
					pc.NativeAlloc++
				}
			case cm.Code[w] == subGuard && second == ldrWZR:
				pc.StackCheck++
			}
		}
	}
	return pc
}
