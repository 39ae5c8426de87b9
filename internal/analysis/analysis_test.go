package analysis_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dex"
	"repro/internal/oat"
)

// lint returns the image's warnings and errors at GOMAXPROCS width.
func lint(t testing.TB, img *oat.Image) []analysis.Finding {
	t.Helper()
	fs, err := analysis.LintCtx(context.Background(), img, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// analyze returns the image's full report at the given worker width.
func analyze(t testing.TB, img *oat.Image, workers int) *analysis.Report {
	t.Helper()
	rep, err := analysis.AnalyzeCtx(context.Background(), img, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// findInst locates the first instruction in method m matching pred,
// returning its method-relative byte offset.
func findInst(t *testing.T, img *oat.Image, m int, pred func(a64.Inst) bool) int {
	t.Helper()
	rec := img.Methods[m]
	for w := 0; w < rec.Size/a64.WordSize; w++ {
		word := img.Text[rec.Offset/a64.WordSize+w]
		if inst, ok := a64.Decode(word); ok && pred(inst) {
			return w * a64.WordSize
		}
	}
	t.Fatalf("m%d: no matching instruction", m)
	return -1
}

// findMethodWith returns the index of the first method containing an
// instruction matching pred.
func findMethodWith(img *oat.Image, pred func(a64.Inst) bool) int {
	for m, rec := range img.Methods {
		for w := 0; w < rec.Size/a64.WordSize; w++ {
			if inst, ok := a64.Decode(img.Text[rec.Offset/a64.WordSize+w]); ok && pred(inst) {
				return m
			}
		}
	}
	return -1
}

// setWord rewrites one word of method m at byte offset off.
func setWord(img *oat.Image, m, off int, word uint32) {
	img.Text[(img.Methods[m].Offset+off)/a64.WordSize] = word
}

// wantFinding asserts that linting the image produces at least one
// finding under rule naming the given method and offset.
func wantFinding(t *testing.T, img *oat.Image, rule string, m dex.MethodID, off int) {
	t.Helper()
	findings := lint(t, img)
	for _, f := range findings {
		if f.Rule == rule && f.Method == m && f.Off == off {
			t.Logf("finding: %s", f)
			return
		}
	}
	t.Errorf("no [%s] finding for m%d+%#x; got %d findings:", rule, m, off, len(findings))
	for i, f := range findings {
		if i == 8 {
			break
		}
		t.Errorf("  %s", f)
	}
}

// The corrupt* helpers each plant one deliberate defect in a clean build
// of the corruption-test app, returning the method index and
// method-relative byte offset the defect sits at (-1 where the defect is
// not positional). The TestCorrupt* tests assert the finding each defect
// must raise; TestAnalyzeReportPin pins the full report over the same
// mutated images, and TestCarriedReportMatchesFresh analyzes each one
// next to its clean twin.
var corruptions = []corruption{
	{"branch", core.CTOLTBO(), corruptBranch},
	{"branch-metadata", core.CTOLTBO(), corruptBranchMetadata},
	{"blob-exit", core.CTOLTBO(), corruptBlobExit},
	{"call-into-blob-interior", core.CTOLTBO(), corruptCallIntoBlobInterior},
	{"epilogue", core.Baseline(), corruptEpilogue},
	{"callee-saved", core.Baseline(), corruptCalleeSaved},
	{"record", core.Baseline(), corruptRecord},
	{"undecodable", core.CTOOnly(), corruptUndecodable},
}

// corruption is one planted defect and the configuration of the build it
// is planted in.
type corruption struct {
	name  string
	cfg   core.Config
	plant func(t *testing.T, img *oat.Image) (m, off int)
}

// build returns a clean build with the defect planted.
func (c corruption) build(t *testing.T) (*oat.Image, int, int) {
	img := buildApp(t, c.cfg)
	m, off := c.plant(t, img)
	return img, m, off
}

// corrupted builds the named corruption.
func corrupted(t *testing.T, name string) (*oat.Image, int, int) {
	t.Helper()
	for _, c := range corruptions {
		if c.name == name {
			return c.build(t)
		}
	}
	t.Fatalf("no corruption named %q", name)
	return nil, -1, -1
}

// corruptBranch flips a conditional branch to a displacement that
// escapes the method.
func corruptBranch(t *testing.T, img *oat.Image) (int, int) {
	m := findMethodWith(img, func(i a64.Inst) bool { return i.Op == a64.OpBCond })
	if m < 0 {
		t.Fatal("no conditional branch in any method")
	}
	off := findInst(t, img, m, func(i a64.Inst) bool { return i.Op == a64.OpBCond })
	word := img.Text[(img.Methods[m].Offset+off)/a64.WordSize]
	patched, err := a64.PatchRel(word, -1<<18) // far before any method
	if err != nil {
		t.Fatal(err)
	}
	setWord(img, m, off, patched)
	return m, off
}

// corruptBranchMetadata moves a recorded unconditional branch's target by
// one word: still in-method, still aligned, but no longer what the
// metadata promises.
func corruptBranchMetadata(t *testing.T, img *oat.Image) (int, int) {
	for m, rec := range img.Methods {
		for _, rel := range rec.Meta.PCRel {
			w := (rec.Offset + rel.InstOff) / a64.WordSize
			inst, ok := a64.Decode(img.Text[w])
			if !ok || inst.Op != a64.OpB {
				continue
			}
			newOff := inst.Imm - a64.WordSize
			if rel.InstOff+int(newOff) <= 0 {
				continue
			}
			patched, err := a64.PatchRel(img.Text[w], newOff)
			if err != nil {
				continue
			}
			img.Text[w] = patched
			return m, rel.InstOff
		}
	}
	t.Fatal("no recorded unconditional branch found")
	return -1, -1
}

// corruptBlobExit replaces the first outlined function's br x30 exit with
// a ret.
func corruptBlobExit(t *testing.T, img *oat.Image) (int, int) {
	if len(img.Outlined) == 0 {
		t.Fatal("build produced no outlined functions")
	}
	f := img.Outlined[0]
	last := (f.Offset + f.Size - a64.WordSize) / a64.WordSize
	img.Text[last] = a64.MustEncode(a64.Inst{Op: a64.OpRet, Rn: a64.LR})
	return -1, -1
}

// corruptCallIntoBlobInterior retargets a bl so it lands in the middle of
// an outlined function.
func corruptCallIntoBlobInterior(t *testing.T, img *oat.Image) (int, int) {
	var blob *oat.FuncRecord
	for i := range img.Outlined {
		if img.Outlined[i].Size > 2*a64.WordSize {
			blob = &img.Outlined[i]
			break
		}
	}
	if blob == nil {
		t.Fatal("no multi-instruction outlined function")
	}
	m := findMethodWith(img, func(i a64.Inst) bool { return i.Op == a64.OpBl })
	off := findInst(t, img, m, func(i a64.Inst) bool { return i.Op == a64.OpBl })
	abs := img.Methods[m].Offset + off
	patched, err := a64.PatchRel(
		img.Text[abs/a64.WordSize], int64(blob.Offset+a64.WordSize-abs))
	if err != nil {
		t.Fatal(err)
	}
	setWord(img, m, off, patched)
	return m, off
}

// corruptEpilogue shrinks the frame release of one method's epilogue,
// leaving sp unbalanced at ret.
func corruptEpilogue(t *testing.T, img *oat.Image) (int, int) {
	isRelease := func(i a64.Inst) bool {
		return i.Op == a64.OpLdp && i.Index == a64.IndexPost && i.Rn == 31 && i.Imm > 16
	}
	m := findMethodWith(img, isRelease)
	if m < 0 {
		t.Fatal("no frame-releasing epilogue found")
	}
	off := findInst(t, img, m, isRelease)
	word := img.Text[(img.Methods[m].Offset+off)/a64.WordSize]
	inst, _ := a64.Decode(word)
	inst.Imm -= 16
	setWord(img, m, off, a64.MustEncode(inst))
	return m, off
}

// corruptCalleeSaved turns a callee-saved restore into a restore of the
// wrong register, so x20's entry value never comes back.
func corruptCalleeSaved(t *testing.T, img *oat.Image) (int, int) {
	isRestore := func(i a64.Inst) bool {
		return i.Op == a64.OpLdp && i.Index == a64.IndexOffset && i.Rn == 31 &&
			i.Rd == a64.Reg(20)
	}
	m := findMethodWith(img, isRestore)
	if m < 0 {
		t.Fatal("no x20 restore found")
	}
	off := findInst(t, img, m, isRestore)
	word := img.Text[(img.Methods[m].Offset+off)/a64.WordSize]
	inst, _ := a64.Decode(word)
	inst.Rd = a64.Reg(9) // restore into a scratch reg instead
	setWord(img, m, off, a64.MustEncode(inst))
	return m, off
}

// corruptRecord pushes a method record past the text end.
func corruptRecord(t *testing.T, img *oat.Image) (int, int) {
	img.Methods[3].Size = img.TextBytes() // extends past the end
	return 3, -1
}

// corruptUndecodable stomps method 5's prologue stp (offset 0, never
// embedded data) with garbage.
func corruptUndecodable(t *testing.T, img *oat.Image) (int, int) {
	setWord(img, 5, 0, 0xFFFFFFFF)
	return 5, 0
}

// TestCorruptBranch: a conditional branch escaping its method is the
// acceptance criterion's "deliberately corrupted image" case. The
// finding must name the method and the offset.
func TestCorruptBranch(t *testing.T) {
	img, m, off := corrupted(t, "branch")
	wantFinding(t, img, analysis.RuleBranchTarget, dex.MethodID(m), off)
}

// TestCorruptBranchMetadata is the single-bit-flip case: even when the
// flipped target still lands on some instruction boundary, the metadata
// cross-check catches it.
func TestCorruptBranchMetadata(t *testing.T) {
	img, m, off := corrupted(t, "branch-metadata")
	wantFinding(t, img, analysis.RuleMetadata, dex.MethodID(m), off)
}

// TestCorruptBlobExit: the blob no longer returns through the canonical
// exit and must be flagged, and every method is still analyzed without
// the replay.
func TestCorruptBlobExit(t *testing.T) {
	img, _, _ := corrupted(t, "blob-exit")
	var hit bool
	for _, fd := range lint(t, img) {
		if fd.Rule == analysis.RuleBlobShape && fd.Method == analysis.NoMethod {
			hit = true
		}
	}
	if !hit {
		t.Error("corrupted outlined-function exit produced no blob-shape finding")
	}
}

// TestCorruptCallIntoBlobInterior: a bl into the middle of an outlined
// function is a blob-entry error at the call site.
func TestCorruptCallIntoBlobInterior(t *testing.T) {
	img, m, off := corrupted(t, "call-into-blob-interior")
	wantFinding(t, img, analysis.RuleBlobEntry, dex.MethodID(m), off)
}

// TestCorruptEpilogue: an unbalanced epilogue is an sp-balance error.
func TestCorruptEpilogue(t *testing.T) {
	img, m, _ := corrupted(t, "epilogue")
	var hit bool
	for _, f := range lint(t, img) {
		if f.Rule == analysis.RuleSPBalance && f.Method == dex.MethodID(m) {
			hit = true
		}
	}
	if !hit {
		t.Error("unbalanced epilogue produced no sp-balance finding")
	}
}

// TestCorruptCalleeSaved: a restore into the wrong register leaves a
// callee-saved register dirty at ret.
func TestCorruptCalleeSaved(t *testing.T) {
	img, m, _ := corrupted(t, "callee-saved")
	var hit bool
	for _, f := range lint(t, img) {
		if f.Rule == analysis.RuleCalleeSaved && f.Method == dex.MethodID(m) {
			hit = true
		}
	}
	if !hit {
		t.Error("clobbered callee-saved restore produced no finding")
	}
}

// TestCorruptRecord: an oversized method record is a record error.
func TestCorruptRecord(t *testing.T) {
	img, _, _ := corrupted(t, "record")
	var hit bool
	for _, f := range lint(t, img) {
		if f.Rule == analysis.RuleRecord {
			hit = true
		}
	}
	if !hit {
		t.Error("oversized method record produced no record finding")
	}
}

// TestCorruptUndecodable: a garbage word is a decode error at its offset.
func TestCorruptUndecodable(t *testing.T) {
	img, m, off := corrupted(t, "undecodable")
	wantFinding(t, img, analysis.RuleDecode, dex.MethodID(m), off)
}

// TestMethodCFG exercises the public per-method CFG entry point.
func TestMethodCFG(t *testing.T) {
	img := buildApp(t, core.CTOLTBO())
	m := findMethodWith(img, func(i a64.Inst) bool { return i.Op == a64.OpBCond })
	cfg, findings := analysis.MethodCFG(img, dex.MethodID(m))
	for _, f := range findings {
		if f.Severity >= analysis.SevWarn {
			t.Errorf("unexpected: %s", f)
		}
	}
	if cfg == nil || len(cfg.Blocks) < 2 {
		t.Fatalf("m%d: expected a branching CFG, got %+v", m, cfg)
	}
	if cfg.Blocks[0].Start != 0 {
		t.Errorf("entry block starts at %#x", cfg.Blocks[0].Start)
	}
	// Every successor index must be valid, and some block must branch.
	branching := false
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if s < 0 || s >= len(cfg.Blocks) {
				t.Fatalf("successor %d out of range", s)
			}
		}
		if b.Term == a64.OpBCond {
			branching = true
		}
	}
	if !branching {
		t.Error("no conditional block terminator recovered")
	}
}

// TestFindingString pins the diagnostic rendering tooling greps on.
func TestFindingString(t *testing.T) {
	f := analysis.Finding{
		Severity: analysis.SevError, Method: 12, Off: 0x48,
		Rule: analysis.RuleSPBalance, Msg: "oops",
	}
	if got := f.String(); got != "m12+0x48: error [sp-balance] oops" {
		t.Errorf("Finding.String() = %q", got)
	}
	g := analysis.Finding{
		Severity: analysis.SevWarn, Method: analysis.NoMethod, Off: -1,
		Rule: analysis.RuleRecord, Msg: "bad table",
	}
	if got := g.String(); !strings.HasPrefix(got, "image: warn") {
		t.Errorf("image-level Finding.String() = %q", got)
	}
}

// TestSeverityNames pins severity rendering.
func TestSeverityNames(t *testing.T) {
	if analysis.SevInfo.String() != "info" || analysis.SevWarn.String() != "warn" ||
		analysis.SevError.String() != "error" {
		t.Error("severity names broken")
	}
}
