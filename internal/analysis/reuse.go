package analysis

import (
	"slices"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/oat"
)

// An analysis carries per-method results from one image to the next. A
// pass that rewrites an image it has analyzed (debloat's output, the
// re-outliner's) keeps most methods as they were: their words are
// unchanged apart from the bl displacements the relayout repatched. Such a
// method's findings, summary and call-graph walk are taken from the
// earlier analysis instead of being recomputed, under a key that holds
// exactly when a fresh analysis would produce the same result:
//
//   - the same method-table size, and no layout finding in either image
//     (a malformed or overlapping record makes region lookups ambiguous);
//   - the same words, except that a bl word may differ in its
//     displacement; every bl, changed or not, must land on the head of a
//     region in both images, with the same identity: kind, plus method
//     slot or symbol;
//   - the same records (Meta and StackMap);
//   - for every bl into an outlined function, the same function body,
//     which the dataflow pass and the walk replay at the call site;
//   - no other result that read an absolute position: a branch out of the
//     method, a PC-relative record on a bl, or (for the walk) an indirect
//     call through a materialized text address. A walk that classified a
//     constant above the text base as a runtime call also requires the
//     new text segment to end at or below it.
//
// Everything whole-image is recomputed on every image: the layout, the
// thunk and outlined-function checks, call-graph assembly, reachability,
// PinnedIndirect and the paired rules. As with the image attachment, a
// hit skips recomputation, never a check.

// methodResult is one method's share of the per-method verification: its
// findings and summary, and whether a later image may take them. The zero
// value (a slot with no well-formed region) is never reused.
type methodResult struct {
	fs       []Finding
	sum      MethodSummary
	reusable bool
}

// blMask and blBits select a64.Decode's bl encoding, so the reuse check
// decodes only the words that can be calls.
const blMask, blBits = 0xFC000000, 0x94000000

// deriver decides, method by method, whether an image under analysis may
// take a result from the analysis of an earlier image.
type deriver struct {
	prev    *imageAnalysis
	walks   []*methodWalk // prev's walks by slot, or nil when it has none
	l       *layout
	textEnd int64           // first address past the new text segment
	blobs   map[[2]int]bool // (old, new) outlined-function offsets -> same body
}

// newDeriver returns a deriver from prev to the image l indexes, or nil
// when no method of it can be reused.
func newDeriver(prev *imageAnalysis, l *layout, layoutClean bool) *deriver {
	if prev == nil || !prev.layoutClean || !layoutClean || len(prev.methods) != len(l.img.Methods) {
		return nil
	}
	prev.mu.Lock()
	walks := prev.walks
	prev.mu.Unlock()
	return &deriver{
		prev:    prev,
		walks:   walks,
		l:       l,
		textEnd: abi.TextBase + int64(l.img.TextBytes()),
		blobs:   map[[2]int]bool{},
	}
}

// reuse returns the earlier result for method region r, with its walk when
// that holds too, or ok=false when r must be analyzed fresh.
func (d *deriver) reuse(r region) (res methodResult, walk *methodWalk, ok bool) {
	i := r.method
	pr := &d.prev.methods[i]
	prevImg := d.prev.lay.img
	po, no := &prevImg.Methods[i], &d.l.img.Methods[i]
	if !pr.reusable || po.Size != no.Size || !sameRecords(po, no) {
		return methodResult{}, nil, false
	}
	ow := prevImg.Text[po.Offset/a64.WordSize : (po.Offset+po.Size)/a64.WordSize]
	nw := d.l.words(r)
	data := dataWords(po.Meta.EmbeddedData, po.Size)
	for w := range ow {
		if ow[w]&blMask == blBits && !data[w] {
			// A call: it must land on the head of a region with the same
			// identity in both images.
			inst, ok := a64.Decode(ow[w])
			abs := po.Offset + w*a64.WordSize + int(inst.Imm)
			old, found := d.prev.lay.at(abs)
			if !ok || inst.Op != a64.OpBl || !found || abs != old.off || !d.sameTarget(r, w, nw[w], old) {
				return methodResult{}, nil, false
			}
			continue
		}
		if ow[w] != nw[w] {
			return methodResult{}, nil, false
		}
	}
	if d.walks != nil {
		if pw := d.walks[i]; pw != nil && !pw.pinned && d.textEnd <= pw.high {
			walk = pw
		}
	}
	return *pr, walk, true
}

// sameTarget reports whether word w of the new method region r is a bl
// landing on the head of a region with old's identity and, for an
// outlined function, old's body.
func (d *deriver) sameTarget(r region, w int, word uint32, old region) bool {
	inst, ok := a64.Decode(word)
	if !ok || inst.Op != a64.OpBl {
		return false
	}
	abs := r.off + w*a64.WordSize + int(inst.Imm)
	t, ok := d.l.at(abs)
	if !ok || abs != t.off || t.kind != old.kind {
		return false
	}
	switch t.kind {
	case regionMethod:
		return t.method == old.method
	case regionBlob:
		return t.sym == old.sym && d.sameBlob(old, t)
	default:
		return t.sym == old.sym
	}
}

// sameBlob reports whether two outlined-function regions, old in the
// earlier image and t in the new one, hold the same words.
func (d *deriver) sameBlob(old, t region) bool {
	k := [2]int{old.off, t.off}
	same, seen := d.blobs[k]
	if !seen {
		same = slices.Equal(d.prev.lay.words(old), d.l.words(t))
		d.blobs[k] = same
	}
	return same
}

// sameRecords reports whether two method records hold equal metadata and
// stack maps. A nil and an empty slice compare equal, as they serialize.
func sameRecords(x, y *oat.MethodRecord) bool {
	return x.ID == y.ID &&
		x.Meta.HasIndirectJump == y.Meta.HasIndirectJump && x.Meta.IsNative == y.Meta.IsNative &&
		slices.Equal(x.Meta.PCRel, y.Meta.PCRel) &&
		slices.Equal(x.Meta.Terminators, y.Meta.Terminators) &&
		slices.Equal(x.Meta.EmbeddedData, y.Meta.EmbeddedData) &&
		slices.Equal(x.Meta.Slowpaths, y.Meta.Slowpaths) &&
		slices.Equal(x.StackMap, y.StackMap)
}
