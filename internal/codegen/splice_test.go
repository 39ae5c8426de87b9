package codegen

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/workload"
)

// cloneMethod deep-copies what Rewrite remaps.
func cloneMethod(cm *CompiledMethod) *CompiledMethod {
	c := *cm
	c.Code = slices.Clone(cm.Code)
	c.Meta.PCRel = slices.Clone(cm.Meta.PCRel)
	c.Meta.Terminators = slices.Clone(cm.Meta.Terminators)
	c.Meta.EmbeddedData = slices.Clone(cm.Meta.EmbeddedData)
	c.Meta.Slowpaths = slices.Clone(cm.Meta.Slowpaths)
	c.StackMap = slices.Clone(cm.StackMap)
	c.Ext = slices.Clone(cm.Ext)
	return &c
}

// sameMethod compares code, metadata, stack map and Ext; a nil and an
// empty slice compare equal, as they serialize.
func sameMethod(x, y *CompiledMethod) bool {
	return slices.Equal(x.Code, y.Code) &&
		slices.Equal(x.Meta.PCRel, y.Meta.PCRel) &&
		slices.Equal(x.Meta.Terminators, y.Meta.Terminators) &&
		slices.Equal(x.Meta.EmbeddedData, y.Meta.EmbeddedData) &&
		slices.Equal(x.Meta.Slowpaths, y.Meta.Slowpaths) &&
		x.Meta.HasIndirectJump == y.Meta.HasIndirectJump && x.Meta.IsNative == y.Meta.IsNative &&
		slices.Equal(x.StackMap, y.StackMap) &&
		slices.Equal(x.Ext, y.Ext)
}

// freeRuns returns the maximal runs of words no metadata names: not data,
// not a PC-relative instruction or target, not a safepoint, terminator or
// Ext site.
func freeRuns(cm *CompiledMethod) [][2]int {
	n := len(cm.Code)
	busy := make([]bool, n+1)
	mark := func(off int) { busy[off/a64.WordSize] = true }
	for _, r := range cm.Meta.PCRel {
		mark(r.InstOff)
		mark(r.TargetOff)
	}
	for _, t := range cm.Meta.Terminators {
		mark(t)
	}
	for _, s := range cm.StackMap {
		mark(s.NativeOff)
	}
	for _, e := range cm.Ext {
		mark(e.InstOff)
	}
	for _, d := range cm.Meta.EmbeddedData {
		for off := d.Start; off < d.End; off += a64.WordSize {
			mark(off)
		}
	}
	var runs [][2]int
	for w := 0; w < n; {
		if busy[w] {
			w++
			continue
		}
		s := w
		for w < n && !busy[w] {
			w++
		}
		runs = append(runs, [2]int{s, w - s})
	}
	return runs
}

// TestRewriteRoundTrip contracts every free run of every ladder-app method
// to one bound bl, as the outliner does, then expands each bl back into its
// run, as the re-outliner's lift does: the method must come back with its
// original Code, Meta, StackMap and Ext.
func TestRewriteRoundTrip(t *testing.T) {
	bl := []uint32{a64.MustEncode(a64.Inst{Op: a64.OpBl})}
	methods, runs := 0, 0
	for _, prof := range workload.Apps(0.03) {
		app, _, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		cms, err := CompileCtx(context.Background(), app, Options{CTO: true, Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, orig := range cms {
			free := freeRuns(orig)
			if len(free) == 0 {
				continue
			}
			var contract []Splice
			for k, r := range free {
				contract = append(contract, Splice{Start: r[0], Len: r[1], Words: bl, Sym: PackSym(SymKindOutlined, int64(k))})
			}
			cm := cloneMethod(orig)
			if err := cm.Rewrite(contract); err != nil {
				t.Fatalf("%s: contracting: %v", orig.M.FullName(), err)
			}
			var expand []Splice
			for _, e := range cm.Ext {
				if kind, k := UnpackSym(e.Symbol); kind == SymKindOutlined {
					r := free[k]
					expand = append(expand, Splice{Start: e.InstOff / a64.WordSize, Len: 1, Words: orig.Code[r[0] : r[0]+r[1]]})
				}
			}
			if len(expand) != len(free) {
				t.Fatalf("%s: %d bound call sites after contracting %d runs", orig.M.FullName(), len(expand), len(free))
			}
			if err := cm.Rewrite(expand); err != nil {
				t.Fatalf("%s: expanding: %v", orig.M.FullName(), err)
			}
			if !sameMethod(cm, orig) {
				t.Fatalf("%s: round trip changed the method:\n got %+v\nwant %+v", orig.M.FullName(), cm, orig)
			}
			methods++
			runs += len(free)
		}
	}
	if methods == 0 {
		t.Fatal("no method had a free run; the test lost its teeth")
	}
	t.Logf("%d methods, %d runs contracted and expanded", methods, runs)
}

// spliceFixture is a small method naming every kind of metadata:
//
//	0 nop; 1 nop; 2 tbz -> 5; 3 nop; 4 bl (terminator, safepoint, Ext);
//	5 nop (target); 6 ret (terminator); 7 literal word (embedded data)
func spliceFixture() *CompiledMethod {
	nop := a64.MustEncode(a64.Inst{Op: a64.OpNop})
	return &CompiledMethod{
		Code: []uint32{nop, nop, a64.MustEncode(a64.Inst{Op: a64.OpTbz, Rd: a64.X0, Imm: 12}), nop,
			a64.MustEncode(a64.Inst{Op: a64.OpBl}), nop, a64.MustEncode(a64.Inst{Op: a64.OpRet, Rn: a64.LR}), 0xdeadbeef},
		Meta: Meta{
			PCRel:        []a64.Reloc{{InstOff: 8, TargetOff: 20}},
			Terminators:  []int{16, 24},
			EmbeddedData: []a64.Range{{Start: 28, End: 32}},
			Slowpaths:    []a64.Range{{Start: 12, End: 24}},
		},
		StackMap: []StackMapEntry{{NativeOff: 16, DexPC: 3}},
		Ext:      []a64.ExtRef{{InstOff: 16, Symbol: PackSym(SymKindStackCheck, 0)}},
	}
}

// TestRewriteRefusals holds one row per refusal: each must fail with its
// own error.
func TestRewriteRefusals(t *testing.T) {
	one := []uint32{a64.MustEncode(a64.Inst{Op: a64.OpNop})}
	far := make([]uint32, 9000) // farther than tbz's 14-bit word displacement reaches
	for i := range far {
		far[i] = one[0]
	}
	for _, c := range []struct {
		name    string
		mutate  func(cm *CompiledMethod)
		splices []Splice
		want    string
	}{
		{"overlapping splices", nil, []Splice{{Start: 0, Len: 2, Words: one}, {Start: 1, Len: 1, Words: one}}, "overlaps or precedes"},
		{"unsorted splices", nil, []Splice{{Start: 3, Len: 1, Words: one}, {Start: 0, Len: 1, Words: one}}, "overlaps or precedes"},
		{"splice past the end", nil, []Splice{{Start: 7, Len: 2, Words: one}}, "outside the method"},
		{"empty splice", nil, []Splice{{Start: 0, Len: 0, Words: one}}, "outside the method"},
		{"splice with no words", nil, []Splice{{Start: 0, Len: 1}}, "outside the method"},
		{"PC-relative instruction in a splice", nil, []Splice{{Start: 1, Len: 2, Words: one}}, "PC-relative instruction at 0x8 lies in a splice"},
		{"safepoint in a splice", nil, []Splice{{Start: 4, Len: 1, Words: one}}, "safepoint at 0x10 lies in a splice"},
		{"misaligned terminator", func(cm *CompiledMethod) { cm.Meta.Terminators[0] = 18 }, nil, "instruction offset 0x12"},
		{"safepoint at the method's end", func(cm *CompiledMethod) { cm.StackMap[0].NativeOff = 32 }, nil, "instruction offset 0x20"},
		{"negative PC-relative target", func(cm *CompiledMethod) { cm.Meta.PCRel[0].TargetOff = -4 }, nil, "offset -0x4"},
		{"range past the end", func(cm *CompiledMethod) { cm.Meta.EmbeddedData[0].End = 36 }, nil, "offset 0x24"},
		{"range ending before it starts", func(cm *CompiledMethod) { cm.Meta.Slowpaths[0] = a64.Range{Start: 12, End: 8} }, nil, "ends before it starts"},
		{"Ext out of order", func(cm *CompiledMethod) {
			cm.Ext = append(cm.Ext, a64.ExtRef{InstOff: 4, Symbol: PackSym(SymKindStackCheck, 0)})
		}, nil, "out of order"},
		{"displacement out of reach", nil, []Splice{{Start: 3, Len: 1, Words: far}}, "patching PC-relative at 0x8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cm := spliceFixture()
			if c.mutate != nil {
				c.mutate(cm)
			}
			err := cm.Rewrite(c.splices)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Rewrite = %v, want an error containing %q", err, c.want)
			}
		})
	}
	if err := spliceFixture().Rewrite(nil); err != nil {
		t.Errorf("the unmutated fixture is refused: %v", err)
	}
}

// TestRewriteDropsReplacedSites replaces the fixture's call, once its
// safepoint is gone: its terminator and Ext entry go with it, and the
// branch over it keeps its target.
func TestRewriteDropsReplacedSites(t *testing.T) {
	nop := a64.MustEncode(a64.Inst{Op: a64.OpNop})
	cm := spliceFixture()
	cm.StackMap = nil
	if err := cm.Rewrite([]Splice{{Start: 4, Len: 1, Words: []uint32{nop, nop}}}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cm.Meta.Terminators, []int{28}) || len(cm.Ext) != 0 {
		t.Errorf("terminators %v, Ext %v; want [28] and none", cm.Meta.Terminators, cm.Ext)
	}
	if want := []a64.Reloc{{InstOff: 8, TargetOff: 24}}; !slices.Equal(cm.Meta.PCRel, want) {
		t.Errorf("PCRel %v, want %v", cm.Meta.PCRel, want)
	}
	if i, ok := a64.Decode(cm.Code[2]); !ok || i.Imm != 16 {
		t.Errorf("tbz reads %+v, want a displacement of 16", i)
	}
}

// TestRewriteMergesExt checks the one-pass merge of remapped existing call
// sites with the splices' bound ones against the sorted union, that a
// method with no call sites gets exactly the bound ones, and that an
// existing list out of offset order is refused rather than misordered.
func TestRewriteMergesExt(t *testing.T) {
	nop := a64.MustEncode(a64.Inst{Op: a64.OpNop})
	bl := a64.MustEncode(a64.Inst{Op: a64.OpBl})
	code := make([]uint32, 12)
	for i := range code {
		code[i] = nop
	}
	old := []a64.ExtRef{{InstOff: 8, Symbol: 1}, {InstOff: 24, Symbol: 2}, {InstOff: 40, Symbol: 3}}
	splices := []Splice{
		{Start: 0, Len: 2, Words: []uint32{bl}, Sym: 10},      // -> word 0
		{Start: 3, Len: 2, Words: []uint32{bl}, Sym: 11},      // -> word 2
		{Start: 5, Len: 1, Words: []uint32{bl, nop}, Sym: 12}, // -> words 3-4
		{Start: 7, Len: 3, Words: []uint32{bl}, Sym: 13},      // -> word 6
	}
	cm := &CompiledMethod{Code: slices.Clone(code), Ext: slices.Clone(old)}
	if err := cm.Rewrite(splices); err != nil {
		t.Fatal(err)
	}
	want := []a64.ExtRef{
		{InstOff: 0, Symbol: 10}, {InstOff: 4, Symbol: 1}, {InstOff: 8, Symbol: 11},
		{InstOff: 12, Symbol: 12}, {InstOff: 20, Symbol: 2}, {InstOff: 24, Symbol: 13}, {InstOff: 28, Symbol: 3},
	}
	if !reflect.DeepEqual(cm.Ext, want) {
		t.Errorf("merge = %v\nwant %v", cm.Ext, want)
	}

	cm = &CompiledMethod{Code: slices.Clone(code)}
	if err := cm.Rewrite(splices); err != nil {
		t.Fatal(err)
	}
	var bound []a64.ExtRef
	for _, e := range want {
		if e.Symbol >= 10 {
			bound = append(bound, e)
		}
	}
	if !reflect.DeepEqual(cm.Ext, bound) {
		t.Errorf("merge into nothing = %v, want %v", cm.Ext, bound)
	}

	cm = &CompiledMethod{Code: slices.Clone(code), Ext: []a64.ExtRef{{InstOff: 24, Symbol: 1}, {InstOff: 8, Symbol: 2}}}
	if err := cm.Rewrite(splices); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("unsorted call sites accepted: %v", err)
	}
}
