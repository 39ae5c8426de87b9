package oat

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/workload"
)

func buildMethods(t testing.TB, cto bool) []*codegen.CompiledMethod {
	t.Helper()
	app, _, err := workload.Generate(workload.Profile{
		Name: "oat", Seed: 5, Methods: 30,
		NativeFrac: 0.1, SwitchFrac: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	methods, err := codegen.CompileCtx(context.Background(), app, codegen.Options{CTO: cto, Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	return methods
}

func TestLinkLayout(t *testing.T) {
	methods := buildMethods(t, true)
	img, err := Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Thunks) == 0 {
		t.Fatal("CTO build produced no thunks")
	}
	// Layout: thunks first, then methods, non-overlapping and in order.
	prevEnd := 0
	for _, f := range img.Thunks {
		if f.Offset != prevEnd {
			t.Errorf("thunk %s at %d, want %d", codegen.SymName(f.Sym), f.Offset, prevEnd)
		}
		prevEnd = f.Offset + f.Size
	}
	for i, m := range img.Methods {
		if m.Offset != prevEnd {
			t.Errorf("method %d at %d, want %d", i, m.Offset, prevEnd)
		}
		prevEnd = m.Offset + m.Size
		if got := img.MethodCode(m.ID); len(got)*4 != m.Size {
			t.Errorf("MethodCode(%d) size mismatch", m.ID)
		}
	}
	if prevEnd != img.TextBytes() {
		t.Errorf("text ends at %d, records end at %d", img.TextBytes(), prevEnd)
	}
	if img.EntryAddr(0) != abi.TextBase+int64(img.Methods[0].Offset) {
		t.Error("EntryAddr miscomputed")
	}
}

// TestMethodCodeCorruptRecord checks that MethodCode refuses — with nil,
// not a panic — records that parse but would fail Validate: out-of-range
// ids and offsets/sizes outside or misaligned within the text segment.
func TestMethodCodeCorruptRecord(t *testing.T) {
	methods := buildMethods(t, false)
	img, err := Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.MethodCode(dex.MethodID(len(img.Methods))) != nil {
		t.Error("id past the method table returned code")
	}
	if img.MethodCode(^dex.MethodID(0)) != nil {
		t.Error("NoMethod-style id returned code")
	}
	corrupt := func(name string, mutate func(*MethodRecord)) {
		rec := img.Methods[0]
		defer func() { img.Methods[0] = rec }()
		mutate(&img.Methods[0])
		if img.MethodCode(0) != nil {
			t.Errorf("%s: corrupt record returned code", name)
		}
	}
	corrupt("size overruns text", func(m *MethodRecord) { m.Size = img.TextBytes() + a64.WordSize })
	corrupt("negative offset", func(m *MethodRecord) { m.Offset = -4 })
	corrupt("negative size", func(m *MethodRecord) { m.Size = -4 })
	corrupt("misaligned offset", func(m *MethodRecord) { m.Offset += 2 })
	corrupt("misaligned size", func(m *MethodRecord) { m.Size += 2 })
	if img.MethodCode(0) == nil {
		t.Error("restored record no longer returns code")
	}
}

func TestLinkBindsThunkCalls(t *testing.T) {
	methods := buildMethods(t, true)
	img, err := Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	thunkAt := map[int]int{}
	for _, f := range img.Thunks {
		thunkAt[f.Sym] = f.Offset
	}
	// Every external reference must resolve to its thunk's offset.
	for mi, cm := range methods {
		base := img.Methods[mi].Offset
		for _, ref := range cm.Ext {
			word := img.Text[(base+ref.InstOff)/4]
			inst, ok := a64.Decode(word)
			if !ok || inst.Op != a64.OpBl {
				t.Fatalf("call site is not a bl: %#08x", word)
			}
			target := base + ref.InstOff + int(inst.Imm)
			if target != thunkAt[ref.Symbol] {
				t.Errorf("bl resolves to %d, want thunk %s at %d",
					target, codegen.SymName(ref.Symbol), thunkAt[ref.Symbol])
			}
		}
	}
}

func TestLinkWithBlobs(t *testing.T) {
	methods := buildMethods(t, false)
	blob := Blob{
		Sym:  codegen.PackSym(codegen.SymKindOutlined, 0),
		Code: []uint32{a64.MustEncode(a64.Inst{Op: a64.OpNop}), a64.MustEncode(a64.Inst{Op: a64.OpBr, Rn: a64.LR})},
	}
	img, err := Link(methods, []Blob{blob})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Outlined) != 1 || img.Outlined[0].Size != 8 {
		t.Fatalf("outlined records: %+v", img.Outlined)
	}
}

func TestLinkErrors(t *testing.T) {
	methods := buildMethods(t, false)
	// Duplicate blob symbols.
	sym := codegen.PackSym(codegen.SymKindOutlined, 1)
	_, err := Link(methods, []Blob{{Sym: sym, Code: []uint32{0}}, {Sym: sym, Code: []uint32{0}}})
	if err == nil {
		t.Error("duplicate symbol accepted")
	}
	// Unresolved symbol: fake an ext ref to a never-provided outlined sym.
	bad := buildMethods(t, false)
	bad[3].Ext = append(bad[3].Ext, a64.ExtRef{InstOff: 0, Symbol: codegen.PackSym(codegen.SymKindOutlined, 99)})
	if _, err := Link(bad, nil); err == nil {
		t.Error("unresolved symbol accepted")
	}
	// Method table out of order.
	swapped := buildMethods(t, false)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, err := Link(swapped, nil); err == nil {
		t.Error("out-of-order method table accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	methods := buildMethods(t, true)
	img, err := Link(methods, []Blob{{
		Sym:  codegen.PackSym(codegen.SymKindOutlined, 0),
		Code: []uint32{a64.MustEncode(a64.Inst{Op: a64.OpBr, Rn: a64.LR})},
	}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(img, back) {
		t.Fatal("image did not round trip")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	methods := buildMethods(t, false)
	img, err := Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte{9, 9, 9, 9}, data[4:]...),
		"truncated":  data[:len(data)/2],
		"trailing":   append(append([]byte{}, data...), 0),
		"huge count": append(append([]byte{}, data[:4]...), append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, data[8:]...)...),
	}
	for name, d := range cases {
		if _, err := Unmarshal(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTextBytesMatchesWords(t *testing.T) {
	methods := buildMethods(t, false)
	img, err := Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, cm := range methods {
		want += cm.CodeBytes()
	}
	if img.TextBytes() != want {
		t.Errorf("TextBytes = %d, want %d (no thunks, no blobs)", img.TextBytes(), want)
	}
	_ = dex.MethodID(0)
}

func TestMarshalProducesValidELF(t *testing.T) {
	methods := buildMethods(t, true)
	img, err := Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// ELF identification: magic, 64-bit, little-endian, AArch64, ET_DYN.
	if string(data[1:4]) != "ELF" || data[0] != 0x7F {
		t.Fatal("missing ELF magic")
	}
	if data[4] != 2 || data[5] != 1 {
		t.Error("not ELF64 little-endian")
	}
	if data[16] != 3 { // e_type low byte: ET_DYN
		t.Errorf("e_type = %d, want ET_DYN", data[16])
	}
	if data[18] != 183 { // e_machine low byte: EM_AARCH64
		t.Errorf("e_machine = %d, want EM_AARCH64", data[18])
	}
	// The raw .text bytes must appear right after the header.
	firstWord := uint32(data[64]) | uint32(data[65])<<8 | uint32(data[66])<<16 | uint32(data[67])<<24
	if firstWord != img.Text[0] {
		t.Errorf(".text not at expected offset: %#x != %#x", firstWord, img.Text[0])
	}
}

func TestValidateImage(t *testing.T) {
	methods := buildMethods(t, true)
	img, err := Link(methods, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Validate(); err != nil {
		t.Fatalf("honest image rejected: %v", err)
	}
	// Round-tripped images validate too.
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped image rejected: %v", err)
	}

	corrupt := func(name string, mutate func(*Image)) {
		img2, err := Link(buildMethods(t, true), nil)
		if err != nil {
			t.Fatal(err)
		}
		mutate(img2)
		if err := img2.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	corrupt("method overruns text", func(i *Image) { i.Methods[len(i.Methods)-1].Size += 64 })
	corrupt("misaligned offset", func(i *Image) { i.Methods[2].Offset += 2 })
	corrupt("bad table order", func(i *Image) { i.Methods[1].ID = 5 })
	corrupt("terminator out of range", func(i *Image) {
		i.Methods[3].Meta.Terminators = append(i.Methods[3].Meta.Terminators, 1<<20)
	})
	corrupt("safepoint off a call", func(i *Image) {
		for mi := range i.Methods {
			if len(i.Methods[mi].StackMap) > 0 {
				i.Methods[mi].StackMap[0].NativeOff = 4 // mov x29,sp area
				return
			}
		}
	})
	corrupt("thunk body corrupted", func(i *Image) {
		if len(i.Thunks) > 0 {
			i.Text[i.Thunks[0].Offset/4] = 0xFFFFFFFF
		}
	})
}
