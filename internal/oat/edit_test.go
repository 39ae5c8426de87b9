package oat

import (
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/dex"
)

var (
	wRet = a64.MustEncode(a64.Inst{Op: a64.OpRet, Rn: a64.LR})
	wNop = a64.MustEncode(a64.Inst{Op: a64.OpNop})
	wBl  = a64.MustEncode(a64.Inst{Op: a64.OpBl})
	wBrL = a64.MustEncode(a64.Inst{Op: a64.OpBr, Rn: a64.LR})
)

// method returns hand-built compiled code for slot id.
func method(id dex.MethodID, code []uint32, ext ...a64.ExtRef) *codegen.CompiledMethod {
	return &codegen.CompiledMethod{
		M:    &dex.Method{ID: id, Class: "LEdit", Name: "m"},
		Code: code,
		Ext:  ext,
	}
}

// expectRewriteError runs Rewrite and demands an error naming want, not a
// panic and not an image.
func expectRewriteError(t *testing.T, src *Image, edits []Edit, want string) {
	t.Helper()
	out, err := Rewrite(src, edits)
	if err == nil {
		t.Fatalf("Rewrite succeeded with %d text words, want an error containing %q", len(out.Text), want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Rewrite error %q does not mention %q", err, want)
	}
}

// TestRewriteKeepAllIsIdentity pins the editor's base case: keeping every
// region of a linked image in text order reproduces it exactly.
func TestRewriteKeepAllIsIdentity(t *testing.T) {
	img, err := Link(buildMethods(t, true), []Blob{{
		Sym:  codegen.PackSym(codegen.SymKindOutlined, 0),
		Code: []uint32{wNop, wBrL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(img, KeepAll(img))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := img.Marshal()
	b, _ := out.Marshal()
	if string(a) != string(b) {
		t.Error("keeping every region changed the image")
	}
}

func TestRewriteKeptMethodCallsDroppedRegion(t *testing.T) {
	img, err := Link(buildMethods(t, true), nil)
	if err != nil {
		t.Fatal(err)
	}
	var edits []Edit
	for _, e := range KeepAll(img) {
		if e.Kind != EditThunk {
			edits = append(edits, e)
		}
	}
	expectRewriteError(t, img, edits, "a region no edit placed")
}

func TestRewriteUnresolvedSymbol(t *testing.T) {
	sym := codegen.PackSym(codegen.SymKindOutlined, 99)
	cm := method(0, []uint32{wBl, wRet}, a64.ExtRef{InstOff: 0, Symbol: sym})
	expectRewriteError(t, &Image{Methods: make([]MethodRecord, 1)}, []Edit{{Kind: EditMethod, ID: 0, Method: cm}}, "unresolved symbol")
}

func TestRewriteMethodReferenceToStub(t *testing.T) {
	img, err := Link([]*codegen.CompiledMethod{method(0, []uint32{wRet}), method(1, []uint32{wRet})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// m0 calls m1 symbolically, but m1 gets no edit: it is a stub.
	cm := method(0, []uint32{wBl, wRet}, a64.ExtRef{InstOff: 0, Symbol: codegen.PackSym(codegen.SymKindMethod, 1)})
	expectRewriteError(t, img, []Edit{{Kind: EditMethod, ID: 0, Method: cm}}, "m1, which has no body")
}

func TestRewriteNewBlobCollidesWithKept(t *testing.T) {
	sym := codegen.PackSym(codegen.SymKindReoutlined, 3)
	img, err := Link([]*codegen.CompiledMethod{method(0, []uint32{wRet})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Give the source a kept outlined function under sym, then append a
	// new body minted with the same symbol.
	src, err := Rewrite(img, append(KeepAll(img), Edit{Kind: EditOutlined, Sym: sym, Code: []uint32{wBrL}}))
	if err != nil {
		t.Fatal(err)
	}
	edits := append(KeepAll(src), Edit{Kind: EditOutlined, Sym: sym, Code: []uint32{wNop, wBrL}})
	expectRewriteError(t, src, edits, "duplicate symbol")
}

func TestRewriteDisplacementNoLongerEncodes(t *testing.T) {
	// A tbz reaches ±32 KiB: placing its target behind a 40 KiB body
	// leaves a displacement PatchRel cannot encode.
	target := codegen.PackSym(codegen.SymKindOutlined, 1)
	tbz := a64.MustEncode(a64.Inst{Op: a64.OpTbz, Rd: 0, Bit: 0})
	cm := method(0, []uint32{tbz, wRet}, a64.ExtRef{InstOff: 0, Symbol: target})
	filler := make([]uint32, 10_000)
	for i := range filler {
		filler[i] = wNop
	}
	filler[len(filler)-1] = wBrL
	expectRewriteError(t, &Image{Methods: make([]MethodRecord, 1)}, []Edit{
		{Kind: EditMethod, ID: 0, Method: cm},
		{Kind: EditOutlined, Sym: codegen.PackSym(codegen.SymKindOutlined, 0), Code: filler},
		{Kind: EditOutlined, Sym: target, Code: []uint32{wBrL}},
	}, "binding")
}

func TestRewriteSkipsEmbeddedData(t *testing.T) {
	// m0 branches over one data word that happens to decode as a bl into
	// nowhere; the word must ride through untouched when m0 moves.
	data := a64.MustEncode(a64.Inst{Op: a64.OpBl, Imm: 0x4000})
	skip := a64.MustEncode(a64.Inst{Op: a64.OpB, Imm: 8})
	m0 := method(0, []uint32{skip, data, wRet})
	m0.Meta.EmbeddedData = []a64.Range{{Start: 4, End: 8}}
	img, err := Link([]*codegen.CompiledMethod{m0, method(1, []uint32{wNop, wRet})}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Rewrite(img, []Edit{{Kind: EditMethod, ID: 1}, {Kind: EditMethod, ID: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if out.Methods[0].Offset != 8 {
		t.Fatalf("m0 at %#x, want 0x8", out.Methods[0].Offset)
	}
	if got := out.MethodCode(0); len(got) != 3 || got[1] != data {
		t.Errorf("m0 = %#08x, want the data word %#08x kept at +0x4", got, data)
	}
}
