package codegen

import (
	"context"
	"testing"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/dex"
	"repro/internal/workload"
)

func compileOne(t *testing.T, m *dex.Method, opts Options) *CompiledMethod {
	t.Helper()
	cm, err := compileMethod(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

func simpleMethod(code []dex.Insn, numRegs, numIns int) *dex.Method {
	return &dex.Method{Class: "LT", Name: "m", NumRegs: numRegs, NumIns: numIns, Code: code}
}

func countOp(words []uint32, op a64.Op) int {
	n := 0
	for _, w := range words {
		if i, ok := a64.Decode(w); ok && i.Op == op {
			n++
		}
	}
	return n
}

// TestJavaCallPattern checks the Figure 4a lowering with and without CTO.
func TestJavaCallPattern(t *testing.T) {
	callee := simpleMethod([]dex.Insn{{Op: dex.OpReturnVoid}}, 1, 0)
	callee.ID = 7
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 1},
		{Op: dex.OpInvoke, A: 0, Method: 7, B: 0, C: 0},
		{Op: dex.OpReturn, A: 0},
	}, 2, 0)

	plain := compileOne(t, m, Options{})
	// Inline pattern: ldr x30, [x0, #EntryPointOffset] followed by blr x30.
	found := false
	for i := 0; i+1 < len(plain.Code); i++ {
		first, ok1 := a64.Decode(plain.Code[i])
		second, ok2 := a64.Decode(plain.Code[i+1])
		if ok1 && ok2 && first.Op == a64.OpLdrImm && first.Rd == a64.LR &&
			first.Rn == a64.X0 && first.Imm == abi.EntryPointOffset &&
			second.Op == a64.OpBlr && second.Rn == a64.LR {
			found = true
		}
	}
	if !found {
		t.Error("inline Java-call pattern not emitted")
	}
	_ = callee

	cto := compileOne(t, m, Options{CTO: true})
	if countOp(cto.Code, a64.OpBlr) != 0 {
		t.Error("CTO left a blr behind")
	}
	wantSym := PackSym(SymKindJavaEntry, abi.EntryPointOffset)
	foundSym := false
	for _, e := range cto.Ext {
		if e.Symbol == wantSym {
			foundSym = true
		}
	}
	if !foundSym {
		t.Errorf("no Java-entry thunk reference in %v", cto.Ext)
	}
	if len(cto.Code) >= len(plain.Code) {
		t.Errorf("CTO did not shrink the method: %d >= %d", len(cto.Code), len(plain.Code))
	}
}

// TestStackCheckPattern checks the Figure 4c prologue for non-leaf methods
// and its absence for leaves.
func TestStackCheckPattern(t *testing.T) {
	leaf := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 5},
		{Op: dex.OpReturn, A: 0},
	}, 1, 0)
	nonLeaf := simpleMethod([]dex.Insn{
		{Op: dex.OpNewInstance, A: 0, Lit: 2},
		{Op: dex.OpReturn, A: 0},
	}, 1, 0)

	guard := a64.MustEncode(a64.Inst{Op: a64.OpSubImm, Sf: true, Rd: a64.IP0, Rn: a64.SP,
		Imm: abi.StackGuard >> 12, Shift12: true})
	hasGuard := func(cm *CompiledMethod) bool {
		for _, w := range cm.Code {
			if w == guard {
				return true
			}
		}
		return false
	}
	if hasGuard(compileOne(t, leaf, Options{})) {
		t.Error("leaf method has a stack check")
	}
	if !hasGuard(compileOne(t, nonLeaf, Options{})) {
		t.Error("non-leaf method lacks the stack check")
	}
	// Under CTO the check is a thunk call.
	cm := compileOne(t, nonLeaf, Options{CTO: true})
	if hasGuard(cm) {
		t.Error("CTO left the inline stack check")
	}
	foundSym := false
	for _, e := range cm.Ext {
		if e.Symbol == PackSym(SymKindStackCheck, 0) {
			foundSym = true
		}
	}
	if !foundSym {
		t.Error("no stack-check thunk reference")
	}
}

// TestStackMapLiveness: the live mask at a safepoint reflects IR liveness.
func TestStackMapLiveness(t *testing.T) {
	// v1 is live across the call (used after); v2 is not.
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 1, Lit: 10},
		{Op: dex.OpConst, A: 2, Lit: 20},
		{Op: dex.OpConst, A: 3, Lit: 0},
		{Op: dex.OpInvokeNative, A: 0, Native: dex.NativeGCSafepoint, B: 3, C: 3},
		{Op: dex.OpAdd, A: 0, B: 0, C: 1},
		{Op: dex.OpReturn, A: 0},
	}, 4, 0)
	cm := compileOne(t, m, Options{}) // no IR opt: keep the dead v2 def
	if len(cm.StackMap) != 1 {
		t.Fatalf("stack map entries = %d, want 1", len(cm.StackMap))
	}
	live := cm.StackMap[0].Live
	if live&(1<<1) == 0 {
		t.Errorf("v1 not marked live at safepoint (mask %#x)", live)
	}
	if live&(1<<2) != 0 {
		t.Errorf("dead v2 marked live at safepoint (mask %#x)", live)
	}
	// Safepoint lands on the call instruction.
	w := cm.Code[cm.StackMap[0].NativeOff/4]
	if i, ok := a64.Decode(w); !ok || (i.Op != a64.OpBlr && i.Op != a64.OpBl) {
		t.Errorf("safepoint not on a call: %#08x", w)
	}
}

// TestLargeFrame exercises the >504-byte frame path (NumRegs up to 256).
func TestLargeFrame(t *testing.T) {
	code := []dex.Insn{
		{Op: dex.OpConst, A: 200, Lit: 42},
		{Op: dex.OpMove, A: 0, B: 200},
		{Op: dex.OpReturn, A: 0},
	}
	m := simpleMethod(code, 256, 0)
	cm := compileOne(t, m, Options{})
	// Frame setup must use sub sp / add sp instead of pre/post-indexed pairs.
	first, ok := a64.Decode(cm.Code[0])
	if !ok || first.Op != a64.OpSubImm || first.Rd != a64.SP {
		t.Errorf("large frame prologue starts with %v", first)
	}
	if countOp(cm.Code, a64.OpRet) != 1 {
		t.Error("missing epilogue")
	}
}

// TestLiteralPoolIsEmbeddedData: const-pool constants end up in data
// ranges, deduplicated.
func TestLiteralPoolIsEmbeddedData(t *testing.T) {
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConstPool, A: 0, Lit: 0},
		{Op: dex.OpConstPool, A: 1, Lit: 1}, // same value as slot 0: deduplicated
		{Op: dex.OpConstPool, A: 2, Lit: 2},
		{Op: dex.OpReturn, A: 0},
	}, 3, 0)
	m.Pool = []uint64{0xAABBCCDD_11223344, 0xAABBCCDD_11223344, 0x55667788_99AABBCC}
	cm := compileOne(t, m, Options{})
	var dataWords int
	for _, d := range cm.Meta.EmbeddedData {
		dataWords += d.Len() / 4
	}
	// Two distinct 64-bit constants = 4 data words (deduplicated).
	if dataWords != 4 {
		t.Errorf("embedded data words = %d, want 4", dataWords)
	}
	if countOp(cm.Code, a64.OpLdrLit) != 3 {
		t.Error("missing literal loads")
	}
}

// TestIndirectJumpFlag: packed-switch methods are flagged.
func TestIndirectJumpFlag(t *testing.T) {
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 1},
		{Op: dex.OpPackedSwitch, A: 0, Targets: []int32{3}},
		{Op: dex.OpReturn, A: 0},
		{Op: dex.OpConst, A: 0, Lit: 9},
		{Op: dex.OpReturn, A: 0},
	}, 1, 0)
	cm := compileOne(t, m, Options{})
	if !cm.Meta.HasIndirectJump {
		t.Error("switch method not flagged as indirect-jump")
	}
	if countOp(cm.Code, a64.OpBr) == 0 {
		t.Error("no br emitted for the switch")
	}
	if len(cm.Meta.EmbeddedData) == 0 {
		t.Error("jump table not recorded as embedded data")
	}
}

// TestSlowpathRanges: null checks create recorded cold ranges calling the
// throw entrypoint.
func TestSlowpathRanges(t *testing.T) {
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpNewInstance, A: 0, Lit: 2},
		{Op: dex.OpIGet, A: 1, B: 0, Lit: 1},
		{Op: dex.OpReturn, A: 1},
	}, 2, 0)
	cm := compileOne(t, m, Options{})
	if len(cm.Meta.Slowpaths) != 1 {
		t.Fatalf("slowpath ranges = %d, want 1 (NPE)", len(cm.Meta.Slowpaths))
	}
	sp := cm.Meta.Slowpaths[0]
	if sp.Len() <= 0 || sp.End > len(cm.Code)*4 {
		t.Errorf("bad slowpath range %+v", sp)
	}
	// The range ends with brk (never returns).
	last, ok := a64.Decode(cm.Code[sp.End/4-1])
	if !ok || last.Op != a64.OpBrk {
		t.Errorf("slowpath does not end in brk: %v", last)
	}
}

// TestJNIStubShape: native methods compile to the fixed stub and are
// flagged.
func TestJNIStubShape(t *testing.T) {
	m := &dex.Method{Class: "LT", Name: "jni", Native: true, NumRegs: 2, NumIns: 2}
	cm := compileOne(t, m, Options{CTO: true})
	if !cm.Meta.IsNative {
		t.Error("JNI stub not flagged native")
	}
	if len(cm.Code) != 2 {
		t.Errorf("JNI stub is %d words, want 2", len(cm.Code))
	}
	if len(cm.Ext) != 0 || len(cm.StackMap) != 0 {
		t.Error("JNI stub has calls or safepoints")
	}
}

// TestMetaOffsetsInBounds: every recorded offset must reference the code.
func TestMetaOffsetsInBounds(t *testing.T) {
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 3},
		{Op: dex.OpConst, A: 1, Lit: 4},
		{Op: dex.OpIfLt, A: 0, B: 1, Target: 4},
		{Op: dex.OpAdd, A: 0, B: 0, C: 1},
		{Op: dex.OpReturn, A: 0},
	}, 2, 0)
	for _, opts := range []Options{{}, {CTO: true}, {Optimize: true}, {CTO: true, Optimize: true}} {
		cm := compileOne(t, m, opts)
		size := len(cm.Code) * 4
		for _, t0 := range cm.Meta.Terminators {
			if t0 < 0 || t0 >= size || t0%4 != 0 {
				t.Fatalf("terminator offset %d out of bounds", t0)
			}
		}
		for _, r := range cm.Meta.PCRel {
			if r.InstOff < 0 || r.InstOff >= size || r.TargetOff < 0 || r.TargetOff > size {
				t.Fatalf("pcrel %+v out of bounds", r)
			}
		}
		for _, e := range cm.Ext {
			if e.InstOff < 0 || e.InstOff >= size {
				t.Fatalf("ext %+v out of bounds", e)
			}
		}
		for _, s := range cm.StackMap {
			if s.NativeOff < 0 || s.NativeOff >= size {
				t.Fatalf("stackmap %+v out of bounds", s)
			}
		}
	}
}

// TestThunkWords covers the three thunk shapes and rejection of others.
func TestThunkWords(t *testing.T) {
	for _, sym := range []int{
		PackSym(SymKindJavaEntry, abi.EntryPointOffset),
		PackSym(SymKindNativeEP, 0x208),
		PackSym(SymKindStackCheck, 0),
	} {
		words, err := ThunkWords(sym)
		if err != nil {
			t.Fatalf("%s: %v", SymName(sym), err)
		}
		if len(words) < 2 || len(words) > 3 {
			t.Errorf("%s: %d words", SymName(sym), len(words))
		}
		for _, w := range words {
			if _, ok := a64.Decode(w); !ok {
				t.Errorf("%s contains undecodable word %#08x", SymName(sym), w)
			}
		}
	}
	if _, err := ThunkWords(PackSym(SymKindOutlined, 0)); err == nil {
		t.Error("outlined symbols must not have generated thunks")
	}
}

func TestSymPacking(t *testing.T) {
	for _, kind := range []int{SymKindJavaEntry, SymKindNativeEP, SymKindStackCheck, SymKindOutlined} {
		for _, v := range []int64{0, 1, 0x208, 1 << 31} {
			k, got := UnpackSym(PackSym(kind, v))
			if k != kind || got != v {
				t.Errorf("pack/unpack(%d, %d) = (%d, %d)", kind, v, k, got)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on out-of-range symbol value")
		}
	}()
	PackSym(SymKindOutlined, 1<<33)
}

func TestCompileWholeApp(t *testing.T) {
	app, _, err := workload.Generate(workload.Profile{
		Name: "cg", Seed: 9, Methods: 40,
		NativeFrac: 0.1, SwitchFrac: 0.2, HotFrac: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {CTO: true, Optimize: true}} {
		methods, err := CompileCtx(context.Background(), app, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(methods) != app.NumMethods() {
			t.Fatalf("compiled %d of %d methods", len(methods), app.NumMethods())
		}
		var bytes int
		for id, cm := range methods {
			if cm.M.ID != app.Methods[id].ID {
				t.Fatal("method order broken")
			}
			if cm.CodeBytes() != len(cm.Code)*4 {
				t.Fatal("CodeBytes inconsistent")
			}
			bytes += cm.CodeBytes()
		}
		if bytes == 0 {
			t.Fatal("no code")
		}
	}
}

func TestArrayTemplates(t *testing.T) {
	// aget/aput lower through the bounds-checked register-offset sequence;
	// spilled and allocated operand paths both covered (v9 spilled, v1
	// allocated).
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 4},
		{Op: dex.OpNewArray, A: 9, B: 0},
		{Op: dex.OpConst, A: 1, Lit: 2},
		{Op: dex.OpConst, A: 2, Lit: 77},
		{Op: dex.OpAPut, A: 2, B: 9, C: 1},
		{Op: dex.OpAGet, A: 3, B: 9, C: 1},
		{Op: dex.OpArrayLen, A: 4, B: 9},
		{Op: dex.OpAdd, A: 0, B: 3, C: 4},
		{Op: dex.OpReturn, A: 0},
	}, 10, 0)
	cm := compileOne(t, m, Options{})
	if countOp(cm.Code, a64.OpLdrReg) == 0 || countOp(cm.Code, a64.OpStrReg) == 0 {
		t.Error("array templates missing register-offset accesses")
	}
	if len(cm.Meta.Slowpaths) != 2 { // NPE + bounds
		t.Errorf("slowpaths = %d, want 2", len(cm.Meta.Slowpaths))
	}
}

func TestMaterializeNegativeAndWide(t *testing.T) {
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: -1},
		{Op: dex.OpConst, A: 1, Lit: -0x12345678_9ABCDEF0},
		{Op: dex.OpConst, A: 2, Lit: 0x7FFFFFFF_FFFFFFFF},
		{Op: dex.OpAddLit, A: 0, B: 1, Lit: 1 << 20}, // too big for imm12
		{Op: dex.OpReturn, A: 0},
	}, 3, 0)
	cm := compileOne(t, m, Options{})
	if countOp(cm.Code, a64.OpMovn) == 0 {
		t.Error("negative constants should use movn")
	}
	if countOp(cm.Code, a64.OpMovk) < 3 {
		t.Error("wide constants should use movk chains")
	}
}

func TestSymNames(t *testing.T) {
	cases := map[int]string{
		PackSym(SymKindJavaEntry, 32):  "thunk_java_entry_32",
		PackSym(SymKindNativeEP, 0x20): "thunk_native_ep_0x20",
		PackSym(SymKindStackCheck, 0):  "thunk_stack_check",
		PackSym(SymKindOutlined, 7):    "OutlinedFunction_7",
		99 << 32:                       "sym_425201762304",
	}
	for sym, want := range cases {
		if got := SymName(sym); got != want {
			t.Errorf("SymName(%d) = %q, want %q", sym, got, want)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	// A switch too wide for the cmp immediate is rejected.
	targets := make([]int32, 5000)
	for i := range targets {
		targets[i] = 1
	}
	m := simpleMethod([]dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 0},
		{Op: dex.OpPackedSwitch, A: 0, Targets: targets},
		{Op: dex.OpReturnVoid},
	}, 1, 0)
	if _, err := compileMethod(m, Options{}); err == nil {
		t.Error("oversized switch accepted")
	}
}
