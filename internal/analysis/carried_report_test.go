package analysis_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/reoutline"
	"repro/internal/workload"
)

// freshView analyzes a re-parse of img's bytes, which carries nothing:
// the default-spec RunRulesPaired report, BuildCallGraphCtx's graph, and the walk's own share
// of BuildCallGraphCtx's findings (the rest are the layout and blob
// findings the report already holds).
func freshView(t *testing.T, img *oat.Image) *analysis.View {
	t.Helper()
	bare := reparse(t, img)
	rep, err := analysis.RunRulesPaired(context.Background(), bare, nil, nil, analysis.RootSet{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, fs := analysis.BuildCallGraphCtx(context.Background(), bare, 0)
	v := &analysis.View{Report: rep, CallGraph: cg}
	for _, f := range fs {
		if f.Rule == analysis.RuleCallGraph || f.Rule == analysis.RuleCallRemoved {
			v.CGFindings = append(v.CGFindings, f)
		}
	}
	return v
}

// reparse returns a copy of img parsed from its bytes, carrying nothing.
func reparse(t *testing.T, img *oat.Image) *oat.Image {
	t.Helper()
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := oat.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return bare
}

// sameView compares two views field by field. %+v renders nil and empty
// slices alike, as they serialize.
func sameView(t *testing.T, name string, got, want *analysis.View) {
	t.Helper()
	if got == nil {
		t.Errorf("%s: carries no analysis", name)
		return
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"report", *got.Report, *want.Report},
		{"call graph", *got.CallGraph, *want.CallGraph},
		{"walk findings", got.CGFindings, want.CGFindings},
	} {
		if g, w := fmt.Sprintf("%+v", c.got), fmt.Sprintf("%+v", c.want); g != w {
			t.Errorf("%s: carried %s differs from a fresh analysis of the same bytes:\n got %.600s\nwant %.600s", name, c.what, g, w)
		}
	}
}

// carried returns the analysis img carries after Admit.
func carried(t *testing.T, img *oat.Image) *analysis.View {
	t.Helper()
	analysis.Admit(context.Background(), img, 0, nil) // a refusal still attaches the analysis
	v, err := analysis.CarriedView(img)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// paired returns what RunRulesPaired analyzes for img against orig.
func paired(t *testing.T, img, orig *oat.Image) *analysis.View {
	t.Helper()
	v, err := analysis.PairedView(img, orig)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCarriedReportMatchesFresh requires every analysis a pass takes from
// an image's attachment, or derives from the analysis its input carries,
// to equal a fresh analysis of the image's re-parsed bytes: the findings,
// method summaries, call-graph edges and walk findings. The images are the
// six ladder apps at 0.03 under CTO and CTO+LTBO with their debloat (roots
// = the manifest's drivers) and reoutline outputs, and every planted
// corruption, analyzed against its clean twin as the paired rules would.
func TestCarriedReportMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, prof := range workload.Apps(0.03) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			app, man, err := workload.Generate(prof)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name string
				cfg  core.Config
			}{{"cto", core.CTOOnly()}, {"ltbo", core.CTOLTBO()}} {
				res, err := core.BuildCtx(ctx, app, c.cfg)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				img := res.Image
				sameView(t, c.name, carried(t, img), freshView(t, img))
				tracer := obs.New()
				deb, _, err := analysis.DebloatCtx(ctx, img, analysis.RootSet{Methods: man.Drivers}, 0, tracer)
				if err != nil {
					t.Fatalf("%s: debloat: %v", c.name, err)
				}
				sameView(t, c.name+"-debloat", carried(t, deb), freshView(t, deb))
				// Debloat changes a kept method only in its bl displacements,
				// so its output's verification reuses every one of them.
				kept := 0
				for _, m := range deb.Methods {
					if m.Size > 0 {
						kept++
					}
				}
				if got := tracer.Snapshot().Counters["analysis.methods_reused"]; got != int64(kept) {
					t.Errorf("%s-debloat: analysis.methods_reused = %d, want all %d kept methods", c.name, got, kept)
				}
				for _, in := range []struct {
					name string
					img  *oat.Image
				}{{c.name, img}, {c.name + "-debloat", deb}} {
					re, _, err := reoutline.RunCtx(ctx, in.img, reoutline.Config{})
					if err != nil {
						t.Fatalf("%s: reoutline: %v", in.name, err)
					}
					sameView(t, in.name+"-reoutline", paired(t, re, in.img), freshView(t, re))
				}
			}
		})
	}
	for _, c := range append(corruptions, keyCorruptions...) {
		clean := buildApp(t, c.cfg)
		if _, err := analysis.Admit(ctx, clean, 0, nil); err != nil {
			t.Fatalf("%s: clean twin refused: %v", c.name, err)
		}
		img, _, _ := c.build(t)
		want := freshView(t, img)
		sameView(t, "corrupt-"+c.name+" against its clean twin", paired(t, img, clean), want)
		sameView(t, "corrupt-"+c.name, carried(t, img), want)
	}
}

// TestPositionDependentResultsAnalyzedAfresh: a result that read an
// absolute position is never reused, even when the method's words and
// records are unchanged. Each case analyzes an image against an original
// that carries its analysis, after a layout change that moves what the
// result read, and requires what a fresh analysis gives.
func TestPositionDependentResultsAnalyzedAfresh(t *testing.T) {
	ctx := context.Background()

	// A bl into an outlined function's interior names its offset into the
	// function, which moves with the function's record.
	prev := buildApp(t, core.CTOLTBO())
	blob := retargetOutside(t, prev, a64.OpBl, a64.WordSize)
	analysis.Admit(ctx, prev, 0, nil) // refused, with the analysis attached
	img := reparse(t, prev)
	img.Outlined[blob].Offset += a64.WordSize
	img.Outlined[blob].Size -= a64.WordSize
	sameView(t, "moved outlined function under an interior call", paired(t, img, prev), freshView(t, img))

	// Likewise a branch out of its method names the region it lands in,
	// here an outlined function that is then renamed.
	prev = buildApp(t, core.CTOLTBO())
	blob = retargetOutside(t, prev, a64.OpBCond, 0)
	analysis.Admit(ctx, prev, 0, nil)
	img = reparse(t, prev)
	img.Outlined[blob].Sym = codegen.PackSym(codegen.SymKindOutlined, 1<<20)
	sameView(t, "renamed outlined function under an escaping branch", paired(t, img, prev), freshView(t, img))

	// A PC-relative record on a bl is checked against the call's
	// displacement, which a relayout rewrites: reversing the region order
	// moves every call, and the recorded one must be analyzed afresh.
	var err error
	if prev, err = reversed(buildApp(t, core.CTOLTBO())); err != nil {
		t.Fatal(err)
	}
	recordCall(t, prev)
	analysis.Admit(ctx, prev, 0, nil)
	if img, err = reversed(prev); err != nil {
		t.Fatal(err)
	}
	sameView(t, "relaid-out call under a PC-relative record", paired(t, img, prev), freshView(t, img))

	// The walk resolves a blr through a materialized text address to the
	// region there, so it is walked afresh when that region is renamed.
	prev = buildApp(t, core.CTOLTBO())
	blob = -1
	for i, f := range prev.Outlined {
		if materializeCall(prev, abi.TextBase+int64(f.Offset), f.Offset) {
			blob = i
			break
		}
	}
	if blob < 0 {
		t.Fatal("no method left to call an outlined function through its address")
	}
	carried(t, prev)
	img = reparse(t, prev)
	img.Outlined[blob].Sym = codegen.PackSym(codegen.SymKindOutlined, 1<<20)
	sameView(t, "renamed outlined function under a materialized call", paired(t, img, prev), freshView(t, img))

	// A constant just past the text end is a runtime call until the text
	// grows over it.
	prev = buildApp(t, core.CTOLTBO())
	if !materializeCall(prev, abi.TextBase+int64(prev.TextBytes()), -1) {
		t.Fatal("no method to call through an address")
	}
	carried(t, prev)
	img = reparse(t, prev)
	end := img.TextBytes()
	img.Text = append(img.Text, img.Text[img.Thunks[0].Offset/a64.WordSize:(img.Thunks[0].Offset+img.Thunks[0].Size)/a64.WordSize]...)
	img.Thunks = append(img.Thunks, oat.FuncRecord{Sym: img.Thunks[0].Sym, Offset: end, Size: img.Thunks[0].Size})
	sameView(t, "text grown over a materialized call", paired(t, img, prev), freshView(t, img))
}

// TestUncleanLayoutAnalyzedAfresh: when either image has a layout finding
// (here a duplicated thunk record, which overlaps its original), region
// lookups may be ambiguous, and no method takes a result across the pair.
// A clean pair of the same images reuses, so the counter is not blind.
func TestUncleanLayoutAnalyzedAfresh(t *testing.T) {
	ctx := context.Background()
	reused := func(name string, img, prev *oat.Image) int64 {
		t.Helper()
		sameView(t, name, paired(t, img, prev), freshView(t, img))
		n, err := analysis.PairedReused(img, prev)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	prev := buildApp(t, core.CTOLTBO())
	analysis.Admit(ctx, prev, 0, nil)
	if n := reused("clean pair", reparse(t, prev), prev); n == 0 {
		t.Fatal("a clean pair reuses no method")
	}
	img := reparse(t, prev)
	img.Thunks = append(img.Thunks, img.Thunks[0])
	if n := reused("duplicated thunk record in the new image", img, prev); n != 0 {
		t.Errorf("duplicated thunk record in the new image: %d methods reused, want 0", n)
	}

	prev = buildApp(t, core.CTOLTBO())
	prev.Thunks = append(prev.Thunks, prev.Thunks[0])
	analysis.Admit(ctx, prev, 0, nil) // refused, with the analysis attached
	img = reparse(t, prev)
	img.Thunks = img.Thunks[:len(img.Thunks)-1]
	if n := reused("duplicated thunk record in the earlier image", img, prev); n != 0 {
		t.Errorf("duplicated thunk record in the earlier image: %d methods reused, want 0", n)
	}
}

// TestDataWordNotMaskedAsCall: an embedded-data word with the bl encoding
// is data, compared exactly, never a call whose displacement the key may
// mask. The word here is the high half of a jump-table entry, which CFG
// recovery reads; in both images it encodes a bl to the head of the same
// thunk, so only its value tells the images apart, and the method must be
// analyzed afresh after a relayout changes it.
func TestDataWordNotMaskedAsCall(t *testing.T) {
	ctx := context.Background()
	prev := buildApp(t, core.CTOLTBO())
	m, w := jumpTableHigh(t, prev)
	sym := prev.Thunks[0].Sym
	callThunkFromData(t, prev, m, w, sym)
	analysis.Admit(ctx, prev, 0, nil)
	img, err := reversed(prev)
	if err != nil {
		t.Fatal(err)
	}
	callThunkFromData(t, img, m, w, sym)
	if img.Text[img.Methods[m].Offset/a64.WordSize+w] == prev.Text[prev.Methods[m].Offset/a64.WordSize+w] {
		t.Fatal("the relayout left the data word unchanged")
	}
	sameView(t, "relaid-out data word with the bl encoding", paired(t, img, prev), freshView(t, img))
}

// jumpTableHigh returns the first method with a jump table and the word
// index of the high half of the table's first entry.
func jumpTableHigh(t *testing.T, img *oat.Image) (m, w int) {
	for m, rec := range img.Methods {
		words := img.Text[rec.Offset/a64.WordSize : (rec.Offset+rec.Size)/a64.WordSize]
		for w := 3; w < len(words); w++ {
			br, ok := a64.Decode(words[w])
			if !ok || br.Op != a64.OpBr || br.Rn != a64.IP1 {
				continue
			}
			if adr, ok := a64.Decode(words[w-3]); ok && adr.Op == a64.OpAdr {
				return m, ((w-3)*a64.WordSize+int(adr.Imm))/a64.WordSize + 1
			}
		}
	}
	t.Fatal("no method with a jump table")
	return -1, -1
}

// callThunkFromData sets word w of method m to a bl to the head of the
// thunk with symbol sym.
func callThunkFromData(t *testing.T, img *oat.Image, m, w, sym int) {
	i := slices.IndexFunc(img.Thunks, func(f oat.FuncRecord) bool { return f.Sym == sym })
	if i < 0 {
		t.Fatalf("no thunk %s", codegen.SymName(sym))
	}
	at := img.Methods[m].Offset + w*a64.WordSize
	word, err := a64.Encode(a64.Inst{Op: a64.OpBl, Imm: int64(img.Thunks[i].Offset - at)})
	if err != nil {
		t.Fatal(err)
	}
	img.Text[at/a64.WordSize] = word
}

// materializeCall rewrites three straight-line words of a method with no
// bl to the text offset avoid, so that it loads target into x30 and calls
// through it. It reports false when no method qualifies.
func materializeCall(img *oat.Image, target int64, avoid int) bool {
	plain := func(word uint32) bool {
		inst, ok := a64.Decode(word)
		return ok && !inst.Op.IsBranch() && !inst.Op.IsPCRel()
	}
	for m, rec := range img.Methods {
		if len(rec.Meta.EmbeddedData) > 0 || callsHead(img, m, avoid) {
			continue
		}
		for w := 1; w+3 < rec.Size/a64.WordSize; w++ {
			at := rec.Offset/a64.WordSize + w
			if !plain(img.Text[at]) || !plain(img.Text[at+1]) || !plain(img.Text[at+2]) {
				continue
			}
			img.Text[at] = a64.MustEncode(a64.Inst{Op: a64.OpMovz, Sf: true, Rd: a64.LR, Imm: target & 0xFFFF})
			img.Text[at+1] = a64.MustEncode(a64.Inst{Op: a64.OpMovk, Sf: true, Rd: a64.LR, Imm: target >> 16 & 0xFFFF, HW: 1})
			img.Text[at+2] = a64.MustEncode(a64.Inst{Op: a64.OpBlr, Rn: a64.LR})
			return true
		}
	}
	return false
}

// callsHead reports whether method m has a bl to the text offset head.
func callsHead(img *oat.Image, m, head int) bool {
	rec := img.Methods[m]
	for w := 0; w < rec.Size/a64.WordSize; w++ {
		abs := rec.Offset + w*a64.WordSize
		if inst, ok := a64.Decode(img.Text[abs/a64.WordSize]); ok && inst.Op == a64.OpBl && abs+int(inst.Imm) == head {
			return true
		}
	}
	return false
}

// reversed lays img's regions out in reverse order.
func reversed(img *oat.Image) (*oat.Image, error) {
	edits := oat.KeepAll(img)
	slices.Reverse(edits)
	return oat.Rewrite(img, edits)
}

// recordCall adds a PC-relative record, true to the encoded displacement,
// on the first forward bl of the first method that has one (a record's
// target offset serializes unsigned, so a backward one would not survive
// the re-parse the fresh analysis reads).
func recordCall(t *testing.T, img *oat.Image) {
	for m := range img.Methods {
		rec := &img.Methods[m]
		for w := 0; w < rec.Size/a64.WordSize; w++ {
			if inst, ok := a64.Decode(img.Text[rec.Offset/a64.WordSize+w]); ok && inst.Op == a64.OpBl && inst.Imm > 0 {
				off := w * a64.WordSize
				rec.Meta.PCRel = append(rec.Meta.PCRel, a64.Reloc{InstOff: off, TargetOff: off + int(inst.Imm)})
				return
			}
		}
	}
	t.Fatal("no forward bl in any method")
}

// keyCorruptions are edits that leave a method's own words alone apart
// from one bl displacement, or change no method at all, yet change what a
// fresh analysis of the method reports: the parts of the reuse key beyond
// the masked words.
var keyCorruptions = []corruption{
	{"bl-retarget", core.CTOLTBO(), retargetCall},
	{"blob-body", core.CTOLTBO(), clobberBlobBody},
	{"pcrel-record", core.CTOLTBO(), shiftPCRelRecord},
}

// retargetCall moves a bl from one pattern thunk's head to another's: a
// legal call, but a different call-graph edge.
func retargetCall(t *testing.T, img *oat.Image) (int, int) {
	thunks := map[int]int{} // head offset -> Thunks index
	for i, f := range img.Thunks {
		thunks[f.Offset] = i
	}
	for m, rec := range img.Methods {
		for w := 0; w < rec.Size/a64.WordSize; w++ {
			abs := rec.Offset + w*a64.WordSize
			inst, ok := a64.Decode(img.Text[abs/a64.WordSize])
			if !ok || inst.Op != a64.OpBl {
				continue
			}
			i, ok := thunks[abs+int(inst.Imm)]
			if !ok {
				continue
			}
			other := img.Thunks[(i+1)%len(img.Thunks)]
			if other.Sym == img.Thunks[i].Sym {
				continue
			}
			patched, err := a64.PatchRel(img.Text[abs/a64.WordSize], int64(other.Offset-abs))
			if err != nil {
				t.Fatal(err)
			}
			img.Text[abs/a64.WordSize] = patched
			return m, w * a64.WordSize
		}
	}
	t.Fatal("no bl to a thunk head")
	return -1, -1
}

// clobberBlobBody makes the first outlined function that has a caller
// overwrite callee-saved x20: its callers' words are untouched, but the
// dataflow pass replays the body at each call site and finds x20 dirty
// at their returns.
func clobberBlobBody(t *testing.T, img *oat.Image) (int, int) {
	if len(img.Outlined) == 0 {
		t.Fatal("build produced no outlined functions")
	}
	f := img.Outlined[0]
	img.Text[f.Offset/a64.WordSize] = a64.MustEncode(a64.Inst{Op: a64.OpMovz, Sf: true, Rd: a64.Reg(20)})
	return -1, f.Offset
}

// shiftPCRelRecord moves the first PC-relative record's target by one
// word, leaving every word of the image alone.
func shiftPCRelRecord(t *testing.T, img *oat.Image) (int, int) {
	for m := range img.Methods {
		if rels := img.Methods[m].Meta.PCRel; len(rels) > 0 {
			rels[0].TargetOff += a64.WordSize
			return m, rels[0].InstOff
		}
	}
	t.Fatal("no PC-relative record in any method")
	return -1, -1
}

// retargetOutside retargets the first op instruction of some method to
// delta bytes past the head of a multi-word outlined function that method
// does not call, and returns the function's Outlined index.
func retargetOutside(t *testing.T, img *oat.Image, op a64.Op, delta int) int {
	for b, f := range img.Outlined {
		if f.Size <= 2*a64.WordSize {
			continue
		}
		for m := range img.Methods {
			if img.Methods[m].Size == 0 || callsHead(img, m, f.Offset) {
				continue
			}
			rec := img.Methods[m]
			for w := 0; w < rec.Size/a64.WordSize; w++ {
				abs := rec.Offset + w*a64.WordSize
				if inst, ok := a64.Decode(img.Text[abs/a64.WordSize]); ok && inst.Op == op {
					patched, err := a64.PatchRel(img.Text[abs/a64.WordSize], int64(f.Offset+delta-abs))
					if err != nil {
						t.Fatal(err)
					}
					img.Text[abs/a64.WordSize] = patched
					return b
				}
			}
		}
	}
	t.Fatalf("no method with a %s that misses some multi-word outlined function", op)
	return -1
}
