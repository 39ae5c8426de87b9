package analysis

import (
	"fmt"
	"sort"

	"repro/internal/dex"
)

// Severity grades a finding.
type Severity uint8

// Severities, in increasing order of gravity. Info findings are advisory
// (dead code, statistics); Warn findings indicate metadata that a later
// binary pass could trip over; Error findings indicate an image that is
// structurally unsound and must not be loaded.
const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

var sevNames = [...]string{"info", "warn", "error"}

func (s Severity) String() string {
	if int(s) < len(sevNames) {
		return sevNames[s]
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// Rules name the invariant a finding violates. Each rule string is stable:
// tooling may filter on it.
const (
	// RuleRecord: a method/thunk/outlined record is out of bounds,
	// misaligned, overlapping another record, or out of table order.
	RuleRecord = "record"
	// RuleDecode: a word outside the embedded-data ranges does not decode
	// as an instruction of the modeled A64 subset.
	RuleDecode = "decode"
	// RuleBranchTarget: a conditional or unconditional PC-relative branch
	// does not land on an instruction boundary inside its own method.
	RuleBranchTarget = "branch-target"
	// RuleCallTarget: a bl does not land on a method entry, a pattern-thunk
	// head, or an outlined-function head.
	RuleCallTarget = "call-target"
	// RuleBlobEntry: a branch or call enters the middle of an outlined
	// function.
	RuleBlobEntry = "blob-entry"
	// RuleIndirect: a computed branch (br) cannot be resolved against the
	// switch-table idiom, so control-flow integrity cannot be established.
	RuleIndirect = "indirect"
	// RuleBlobShape: an outlined function is not straight-line code ending
	// in a single br x30, or clobbers x30/sp on the way there.
	RuleBlobShape = "blob-shape"
	// RuleSPBalance: the stack pointer is not balanced — the frame
	// allocated at entry is not released on some ret path, or two paths
	// reach the same block with different sp adjustments.
	RuleSPBalance = "sp-balance"
	// RuleStackProbe: a method that makes calls does not perform the
	// stack-overflow guard probe before its first call.
	RuleStackProbe = "stack-probe"
	// RuleCalleeSaved: a callee-saved register (x19..x29) does not hold its
	// entry value on some ret path.
	RuleCalleeSaved = "callee-saved"
	// RuleLinkReg: ret executes while x30 holds something other than the
	// caller's return address.
	RuleLinkReg = "link-reg"
	// RuleSafepoint: a stack map entry does not sit on a call instruction.
	RuleSafepoint = "safepoint"
	// RuleMetadata: the LTBO metadata disagrees with the code it describes
	// (a recorded PC-relative site whose displacement points elsewhere, a
	// missing record, an out-of-range offset, an unset indirect-jump flag).
	RuleMetadata = "metadata"
	// RuleLiteral: a PC-relative literal load or address formation targets
	// bytes outside the method's embedded-data ranges.
	RuleLiteral = "literal"
	// RuleDeadCode: instruction words unreachable from the method entry.
	RuleDeadCode = "dead-code"
	// RuleCallGraph: advisory notes from whole-image call-graph
	// construction — call sites whose target the abstract-constant walk
	// could not resolve, or java calls through malformed ArtMethod
	// addresses.
	RuleCallGraph = "callgraph"
	// RuleUnreachable: a method the reachability analysis proves no root
	// can reach; a debloat pass may stub it out.
	RuleUnreachable = "unreachable-method"
	// RuleDeadOutline: an outlined function no live method calls.
	RuleDeadOutline = "dead-outline-body"
	// RuleCallRemoved: a call whose target lies in no recorded region —
	// a range a rewriting pass removed without repatching callers — or
	// outside the text segment entirely.
	RuleCallRemoved = "call-into-removed-range"
	// RuleOutlineCycle: the call graph contains a cycle through an
	// outlined function, which the §3.3 shape (straight-line, no calls)
	// forbids; an image with one can re-enter a blob recursively with a
	// clobbered return address.
	RuleOutlineCycle = "recursive-outline-cycle"
	// RuleReoutlinedBody: in a paired run (oatlint -orig, or the
	// re-outliner's self-check), a method of the new image does not
	// flatten to the same instruction stream as its counterpart in the
	// original image — inlining every outlined call and normalizing
	// PC-relative displacements to logical targets yields different code.
	RuleReoutlinedBody = "reoutlined-body-equivalent"
	// RuleLiftFrozen: in a paired run, a method the lift legality mask
	// froze (native, indirect-jump, unknown call target, or a
	// layout-pinned indirect call) was modified beyond the permitted
	// re-binding of bl displacements to relocated region heads.
	RuleLiftFrozen = "lift-frozen-untouched"
)

// NoMethod marks findings that concern a thunk, an outlined function, or
// the image as a whole rather than one method.
const NoMethod = ^dex.MethodID(0)

// Finding is one verifier diagnostic, machine-readable by design: tests
// assert on empty finding lists, and tooling filters on Rule and Severity.
type Finding struct {
	Severity Severity
	Method   dex.MethodID // NoMethod for thunk/blob/image-level findings
	Off      int          // byte offset within the method (or region); -1 if not positional
	Rule     string
	Msg      string
}

func (f Finding) String() string {
	where := "image"
	if f.Method != NoMethod {
		where = fmt.Sprintf("m%d", f.Method)
	}
	if f.Off >= 0 {
		where += fmt.Sprintf("+%#x", f.Off)
	}
	return fmt.Sprintf("%s: %s [%s] %s", where, f.Severity, f.Rule, f.Msg)
}

// findings accumulates diagnostics.
type findings struct {
	list []Finding
}

func (fs *findings) add(sev Severity, m dex.MethodID, off int, rule, format string, args ...any) {
	fs.list = append(fs.list, Finding{
		Severity: sev, Method: m, Off: off, Rule: rule,
		Msg: fmt.Sprintf(format, args...),
	})
}

// sortFindings puts a finding list into the canonical report order:
// (method, offset, rule, severity, message). Image-level findings
// (NoMethod, the all-ones ID) sort last by comparing IDs as unsigned.
// Every public entry point sorts at the boundary, which is what makes
// reports byte-identical across worker widths and rule-run orders.
func sortFindings(list []Finding) {
	sort.Slice(list, func(a, b int) bool {
		x, y := &list[a], &list[b]
		if x.Method != y.Method {
			return uint32(x.Method) < uint32(y.Method)
		}
		if x.Off != y.Off {
			return x.Off < y.Off
		}
		if x.Rule != y.Rule {
			return x.Rule < y.Rule
		}
		if x.Severity != y.Severity {
			return x.Severity < y.Severity
		}
		return x.Msg < y.Msg
	})
}
