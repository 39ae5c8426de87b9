package codegen

import (
	"fmt"
	"math"

	"repro/internal/a64"
)

// Splice replaces Len words of a method, starting at word Start, with
// Words; both counts must be positive. A nonzero Sym binds the first new
// word to that symbol: it is a call site the linker resolves, and Rewrite
// records it in Ext.
type Splice struct {
	Start int
	Len   int
	Words []uint32
	Sym   int
}

// Rewrite applies splices, sorted by Start and non-overlapping, to the
// method: the one routine behind the outliner's bl contraction (§3.3.3)
// and the re-outliner's expansion of each outlined call back into its
// body. Every word of a replaced run maps to the run's first new word;
// every other offset shifts monotonically. The routine then
//
//   - re-encodes each PC-relative instruction whose displacement changed
//     and remaps its record (§3.3.4);
//   - remaps terminators, embedded-data and slow-path ranges, and stack
//     maps (§3.5), dropping a terminator that sat on a replaced word;
//   - remaps Ext, dropping an entry that sat on a replaced word, and
//     merges in the bound sites of the splices, so a sorted Ext stays
//     sorted.
//
// It refuses a PC-relative instruction or a safepoint on a replaced
// word, an Ext out of offset order, a misaligned or out-of-range offset,
// and a displacement that no longer encodes. Rewrite never writes the old
// Code's backing array or the splices, but it remaps Meta and StackMap in
// place, also on a refusal: a caller that must keep them copies them
// first.
func (cm *CompiledMethod) Rewrite(splices []Splice) error {
	old := cm.Code
	n := len(old)
	size := n * a64.WordSize
	grow := 0
	for i, s := range splices {
		if s.Len < 1 || len(s.Words) < 1 || s.Start < 0 || s.Start+s.Len > n {
			return fmt.Errorf("splice of %d words at word %d is outside the method's %d words", s.Len, s.Start, n)
		}
		if i > 0 && s.Start < splices[i-1].Start+splices[i-1].Len {
			return fmt.Errorf("splice at word %d overlaps or precedes the one before it", s.Start)
		}
		grow += len(s.Words) - s.Len
	}

	// newIdx maps an old word to its new index; a replaced word holds the
	// bitwise complement of its run's first new word, which marks it.
	newIdx := make([]int, n+1)
	code := make([]uint32, 0, n+grow)
	for w, si := 0, 0; w < n; {
		if si < len(splices) && splices[si].Start == w {
			s := splices[si]
			for j := 0; j < s.Len; j++ {
				newIdx[w+j] = ^len(code)
			}
			code = append(code, s.Words...)
			w += s.Len
			si++
			continue
		}
		newIdx[w] = len(code)
		code = append(code, old[w])
		w++
	}
	newIdx[n] = len(code)

	// at maps an old word to its new index and reports whether a splice
	// replaced it.
	at := func(w int) (int, bool) {
		if i := newIdx[w]; i < 0 {
			return ^i, true
		}
		return newIdx[w], false
	}
	// inst maps the offset of an instruction, which must lie inside the
	// method; edge maps a branch target or a range bound, which may equal
	// the method's size.
	inst := func(off int) (newOff int, replaced bool, err error) {
		if off < 0 || off >= size || off%a64.WordSize != 0 {
			return 0, false, fmt.Errorf("instruction offset %#x is misaligned or outside the method's %d bytes", off, size)
		}
		i, replaced := at(off / a64.WordSize)
		return i * a64.WordSize, replaced, nil
	}
	edge := func(off int) (int, error) {
		if off < 0 || off > size || off%a64.WordSize != 0 {
			return 0, fmt.Errorf("offset %#x is misaligned or past the method's %d bytes", off, size)
		}
		i, _ := at(off / a64.WordSize)
		return i * a64.WordSize, nil
	}
	ranges := func(rs []a64.Range) error {
		for i, r := range rs {
			s, err := edge(r.Start)
			if err != nil {
				return err
			}
			e, err := edge(r.End)
			if err != nil {
				return err
			}
			if r.End < r.Start {
				return fmt.Errorf("range [%#x,%#x) ends before it starts", r.Start, r.End)
			}
			rs[i] = a64.Range{Start: s, End: e}
		}
		return nil
	}

	for i, r := range cm.Meta.PCRel {
		ni, replaced, err := inst(r.InstOff)
		if err != nil {
			return err
		}
		if replaced {
			return fmt.Errorf("PC-relative instruction at %#x lies in a splice", r.InstOff)
		}
		nt, err := edge(r.TargetOff)
		if err != nil {
			return err
		}
		if nt-ni != r.TargetOff-r.InstOff {
			patched, err := a64.PatchRel(code[ni/a64.WordSize], int64(nt-ni))
			if err != nil {
				return fmt.Errorf("patching PC-relative at %#x: %w", r.InstOff, err)
			}
			code[ni/a64.WordSize] = patched
		}
		cm.Meta.PCRel[i] = a64.Reloc{InstOff: ni, TargetOff: nt}
	}
	kept := cm.Meta.Terminators[:0]
	for _, t := range cm.Meta.Terminators {
		nt, replaced, err := inst(t)
		if err != nil {
			return err
		}
		if !replaced {
			kept = append(kept, nt)
		}
	}
	cm.Meta.Terminators = kept
	if err := ranges(cm.Meta.EmbeddedData); err != nil {
		return err
	}
	if err := ranges(cm.Meta.Slowpaths); err != nil {
		return err
	}
	for i, s := range cm.StackMap {
		no, replaced, err := inst(s.NativeOff)
		if err != nil {
			return err
		}
		if replaced {
			return fmt.Errorf("safepoint at %#x lies in a splice", s.NativeOff)
		}
		cm.StackMap[i].NativeOff = no
	}

	// Merge the remapped call sites with the splices' bound ones, both in
	// offset order; newIdx is monotonic, so a sorted Ext stays sorted.
	ext := make([]a64.ExtRef, 0, len(cm.Ext)+len(splices))
	si, prev := 0, -1
	flush := func(limit int) {
		for ; si < len(splices); si++ {
			i, _ := at(splices[si].Start)
			if i*a64.WordSize >= limit {
				return
			}
			if sym := splices[si].Sym; sym != 0 {
				ext = append(ext, a64.ExtRef{InstOff: i * a64.WordSize, Symbol: sym})
			}
		}
	}
	for _, e := range cm.Ext {
		if e.InstOff < prev {
			return fmt.Errorf("external call sites out of order at %#x", e.InstOff)
		}
		prev = e.InstOff
		no, replaced, err := inst(e.InstOff)
		if err != nil {
			return err
		}
		if replaced {
			continue
		}
		flush(no)
		ext = append(ext, a64.ExtRef{InstOff: no, Symbol: e.Symbol})
	}
	flush(math.MaxInt)
	cm.Ext = ext
	cm.Code = code
	return nil
}
