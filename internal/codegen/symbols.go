package codegen

import (
	"fmt"

	"repro/internal/a64"
	"repro/internal/abi"
)

// Symbols name link-time-bound call targets. A symbol is packed into an int
// as kind<<32 | value so it can travel through a64.ExtRef without a side
// table.
const (
	// SymKindJavaEntry is the CTO thunk for the Java-call pattern; value is
	// the entry-point offset inside ArtMethod.
	SymKindJavaEntry = 1
	// SymKindNativeEP is the CTO thunk for the runtime-entrypoint pattern;
	// value is the offset from the thread register.
	SymKindNativeEP = 2
	// SymKindStackCheck is the CTO thunk for the stack-overflow check.
	SymKindStackCheck = 3
	// SymKindOutlined is a function created by link-time outlining; value
	// is an index assigned by the outliner.
	SymKindOutlined = 4
	// SymKindReoutlined is a function created by the post-hoc re-outliner
	// (internal/reoutline) on an already-linked image; value is an index
	// assigned by the pass. The distinct kind is the provenance bit: the
	// symbol travels through the serialized FuncRecord unchanged, so dumps
	// and lint rules can tell link-time from post-hoc outlining apart.
	SymKindReoutlined = 5
	// SymKindMethod is a direct method call resolved during lifting; value
	// is the callee's dex.MethodID. It exists only inside a lifted method's
	// Ext table while the re-outliner rewrites it — the relink rebinds and
	// removes it, and it is never serialized into an image.
	SymKindMethod = 6
)

// IsThunkSym reports whether sym names a CTO pattern thunk: a Java-call,
// runtime-entrypoint or stack-check thunk.
func IsThunkSym(sym int) bool {
	kind, _ := UnpackSym(sym)
	return kind == SymKindJavaEntry || kind == SymKindNativeEP || kind == SymKindStackCheck
}

// PackSym builds a symbol int from kind and value.
func PackSym(kind int, value int64) int {
	if value < 0 || value >= 1<<32 {
		panic(fmt.Sprintf("codegen: symbol value %d out of range", value))
	}
	return kind<<32 | int(value)
}

// UnpackSym splits a symbol int.
func UnpackSym(sym int) (kind int, value int64) {
	return sym >> 32, int64(sym & 0xFFFFFFFF)
}

// SymName renders a symbol for dumps.
func SymName(sym int) string {
	kind, v := UnpackSym(sym)
	switch kind {
	case SymKindJavaEntry:
		return fmt.Sprintf("thunk_java_entry_%d", v)
	case SymKindNativeEP:
		return fmt.Sprintf("thunk_native_ep_%#x", v)
	case SymKindStackCheck:
		return "thunk_stack_check"
	case SymKindOutlined:
		return fmt.Sprintf("OutlinedFunction_%d", v)
	case SymKindReoutlined:
		return fmt.Sprintf("ReoutlinedFunction_%d", v)
	case SymKindMethod:
		return fmt.Sprintf("method_%d", v)
	}
	return fmt.Sprintf("sym_%d", sym)
}

// ThunkWords returns the code of a CTO pattern thunk.
//
// The call-pattern thunks forward with ip0 (x16) so the link register still
// holds the original call site and the eventual callee returns straight to
// it; the stack-check thunk returns with ret. The caller's prologue saves
// x29/x30 before the stack check precisely so that this bl is safe (see
// DESIGN.md §4.6 for the deviation from ART's check-first order).
func ThunkWords(sym int) ([]uint32, error) {
	kind, v := UnpackSym(sym)
	var asm a64.Asm
	switch kind {
	case SymKindJavaEntry:
		// ldr x16, [x0, #v]; br x16
		asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: a64.IP0, Rn: a64.X0, Imm: v})
		asm.Inst(a64.Inst{Op: a64.OpBr, Rn: a64.IP0})
	case SymKindNativeEP:
		// ldr x16, [x19, #v]; br x16
		asm.Inst(a64.Inst{Op: a64.OpLdrImm, Sf: true, Rd: a64.IP0, Rn: a64.TR, Imm: v})
		asm.Inst(a64.Inst{Op: a64.OpBr, Rn: a64.IP0})
	case SymKindStackCheck:
		// sub x16, sp, #StackGuard; ldr wzr, [x16]; ret
		asm.Inst(a64.Inst{Op: a64.OpSubImm, Sf: true, Rd: a64.IP0, Rn: a64.SP,
			Imm: abi.StackGuard >> 12, Shift12: true})
		asm.Inst(a64.Inst{Op: a64.OpLdrImm, Rd: a64.XZR, Rn: a64.IP0})
		asm.Inst(a64.Inst{Op: a64.OpRet, Rn: a64.LR})
	default:
		return nil, fmt.Errorf("codegen: no thunk for symbol %s", SymName(sym))
	}
	p, err := asm.Finalize()
	if err != nil {
		return nil, err
	}
	return p.Words, nil
}
