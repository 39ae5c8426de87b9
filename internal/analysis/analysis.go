// Package analysis is oatlint: a standalone static verifier for linked
// OAT images. It takes only a linked *oat.Image — no compile-time
// Snapshot, no symbol side tables — and re-establishes the §3.5
// well-formedness argument from the bytes alone: it reconstructs
// per-method and per-outlined-function control-flow graphs from the
// decoded A64 words, validates control-flow integrity (every branch
// lands on an instruction boundary of its own method, every bl lands on
// a region head, nothing enters the middle of an outlined function, and
// every outlined function is straight-line code ending in br x30), and
// runs an abstract-interpretation dataflow pass proving stack-pointer
// balance, callee-saved register discipline, and link-register integrity
// on every path — including paths that route through outlined calls.
//
// Where outline.VerifyRewriteCtx is the link-time, metadata-assisted check
// (it needs the pre-outlining snapshot), this package is the load-time,
// image-only check: it can lint an image that was marshaled to disk,
// cached, shipped, and unmarshaled by a different process.
package analysis

import (
	"context"
	"fmt"

	"repro/internal/a64"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/par"
)

// MethodSummary is the analyzer's per-method accounting, exposed for
// tooling (oatlint -v) and tests.
type MethodSummary struct {
	ID         dex.MethodID
	Insts      int // decoded instruction words
	DataWords  int // embedded-data words
	Blocks     int // recovered basic blocks
	DeadBlocks int // blocks unreachable from the entry
	Calls      int // bl/blr sites
}

// Report is the full analyzer output: every finding at every severity,
// plus per-method summaries and image-level statistics. Methods holds one
// summary for each well-formed method record, in text order; a malformed
// record draws a [record] finding instead.
type Report struct {
	Findings  []Finding
	Methods   []MethodSummary
	Thunks    int
	Outlined  int
	TextBytes int
}

// ErrorCount returns the number of findings at SevError.
func (r *Report) ErrorCount() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == SevError {
			n++
		}
	}
	return n
}

// analyzeImage runs the full per-method verification and returns it with
// the layout it was computed over, findings in canonical order: the
// shared pass behind RunRulesPaired's per-method rules and LintCtx. Each
// method gets its own finding sink on the worker pool, so the result is
// the same for every width. The rule engine and the call-graph builder
// reuse the layout (and its decoded blob index) so whole-image passes
// never re-derive or duplicate the structural findings. A method whose
// result prev, the analysis of an earlier image, holds under the reuse
// key (reuse.go) takes that result instead of being analyzed again,
// counted as analysis.methods_reused; prev may be nil.
func analyzeImage(ctx context.Context, img *oat.Image, prev *imageAnalysis, workers int, tracer *obs.Tracer) (*imageAnalysis, error) {
	var fs findings
	l := buildLayout(img, &fs)
	an := &imageAnalysis{lay: l, methods: make([]methodResult, len(img.Methods)), layoutClean: len(fs.list) == 0}

	// Shared code first: thunks and outlined functions are verified once,
	// and the decoded blob bodies feed the per-method dataflow replay.
	// From here on the layout (including the blob index) is read-only.
	for _, r := range l.regions {
		switch r.kind {
		case regionThunk:
			l.checkThunk(r, &fs)
		case regionBlob:
			l.checkBlob(r, &fs)
		}
	}

	rep := &Report{
		Thunks:    len(img.Thunks),
		Outlined:  len(img.Outlined),
		TextBytes: img.TextBytes(),
	}
	var mregions, todo []region
	d := newDeriver(prev, l, an.layoutClean)
	reused := 0
	for _, r := range l.regions {
		if r.kind != regionMethod {
			continue
		}
		mregions = append(mregions, r)
		if d != nil {
			if res, walk, ok := d.reuse(r); ok {
				an.methods[r.method] = res
				if walk != nil {
					if an.walks == nil {
						an.walks = make([]*methodWalk, len(img.Methods))
					}
					an.walks[r.method] = walk
				}
				reused++
				continue
			}
		}
		todo = append(todo, r)
	}
	observer := tracer.PoolObserver("lint", func(i int) string {
		return methodName(img.Methods[todo[i].method].ID)
	})
	results, err := par.MapObsCtx(ctx, workers, len(todo), observer, func(i int) (methodResult, error) {
		var mfs findings
		mc := newMethodCtx(l, todo[i], &mfs)
		mc.checkMetadata()
		mc.recoverCFG()
		mc.runDataflow()
		return methodResult{fs: mfs.list, sum: mc.summary(), reusable: !mc.pinned}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		an.methods[todo[i].method] = res
	}
	for _, r := range mregions {
		res := &an.methods[r.method]
		fs.list = append(fs.list, res.fs...)
		rep.Methods = append(rep.Methods, res.sum)
	}
	sortFindings(fs.list)
	rep.Findings = fs.list
	an.rep = rep
	if tracer != nil {
		tracer.Count("lint.findings", int64(len(fs.list)))
		tracer.Count("lint.methods", int64(len(mregions)))
		if prev != nil {
			tracer.Count("analysis.methods_reused", int64(reused))
		}
	}
	return an, nil
}

// LintCtx verifies a linked image and returns the findings that matter:
// the warnings and errors of the per-method rules, suppressing advisory
// (SevInfo) output. They are exactly the warn and error findings of
// RunRulesPaired's default report. A loader that wants a go/no-go answer
// checks for an empty result. Workers, tracer, finding order and
// cancellation are as for RunRulesPaired.
func LintCtx(ctx context.Context, img *oat.Image, workers int, tracer *obs.Tracer) ([]Finding, error) {
	an, err := analyzeImage(ctx, img, nil, workers, tracer)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, f := range an.rep.Findings {
		if f.Severity >= SevWarn {
			out = append(out, f)
		}
	}
	return out, nil
}

// checkMetadata cross-checks the serialized LTBO metadata against the
// code it describes. The metadata is what the link-time rewriter trusts,
// so a disagreement means a future outlining pass over this image would
// corrupt it even though the code itself still runs.
func (mc *methodCtx) checkMetadata() {
	for _, rel := range mc.rec.Meta.PCRel {
		if rel.InstOff < 0 || rel.InstOff%a64.WordSize != 0 || rel.InstOff >= mc.r.size {
			mc.errf(rel.InstOff, RuleMetadata, "PC-relative record outside the method")
			continue
		}
		w := rel.InstOff / a64.WordSize
		if !mc.decoded[w] {
			mc.errf(rel.InstOff, RuleMetadata, "PC-relative record covers a non-instruction word")
			continue
		}
		inst := mc.insts[w]
		if !inst.Op.IsPCRel() {
			mc.errf(rel.InstOff, RuleMetadata,
				"PC-relative record covers %s, which is not PC-relative", inst.Op)
			continue
		}
		// The recorded target must match what the encoded displacement
		// says; adrp works in 4K pages and is excluded from the exact
		// comparison. A record on a bl reads a displacement a relayout
		// rewrites, so the result is not reused (reuse.go).
		if inst.Op == a64.OpBl {
			mc.pinned = true
		}
		if inst.Op != a64.OpAdrp && rel.InstOff+int(inst.Imm) != rel.TargetOff {
			mc.errf(rel.InstOff, RuleMetadata,
				"recorded target %#x disagrees with encoded displacement (%#x)",
				rel.TargetOff, rel.InstOff+int(inst.Imm))
		}
	}

	// The reverse direction: every decoded PC-relative instruction other
	// than bl (calls are external references, not intra-method relocs)
	// should have a record, or the rewriter will move code out from under
	// it.
	recorded := make(map[int]bool, len(mc.rec.Meta.PCRel))
	for _, rel := range mc.rec.Meta.PCRel {
		recorded[rel.InstOff] = true
	}
	for w := range mc.words {
		if !mc.decoded[w] {
			continue
		}
		inst := mc.insts[w]
		if inst.Op.IsPCRel() && inst.Op != a64.OpBl && !recorded[w*a64.WordSize] {
			mc.warnf(w*a64.WordSize, RuleMetadata,
				"%s has no PC-relative record; outlining this method would break it", inst.Op)
		}
	}

	for _, t := range mc.rec.Meta.Terminators {
		if t < 0 || t%a64.WordSize != 0 || t >= mc.r.size {
			mc.errf(t, RuleMetadata, "terminator record outside the method")
			continue
		}
		// The collector records every control transfer: branches, calls,
		// returns, and the brk of a slowpath trap.
		w := t / a64.WordSize
		if !mc.decoded[w] || !(mc.insts[w].Op.IsBranch() || mc.insts[w].Op == a64.OpBrk) {
			mc.errf(t, RuleMetadata, "terminator record does not cover a control-transfer instruction")
		}
	}

	for _, sp := range mc.rec.Meta.Slowpaths {
		if sp.Start < 0 || sp.End < sp.Start || sp.End > mc.r.size {
			mc.errf(sp.Start, RuleMetadata,
				"slowpath range [%#x,%#x) outside the method", sp.Start, sp.End)
		}
	}

	for _, sm := range mc.rec.StackMap {
		if sm.NativeOff < 0 || sm.NativeOff%a64.WordSize != 0 || sm.NativeOff >= mc.r.size {
			mc.errf(sm.NativeOff, RuleSafepoint, "stack map entry outside the method")
			continue
		}
		w := sm.NativeOff / a64.WordSize
		if !mc.decoded[w] || (mc.insts[w].Op != a64.OpBl && mc.insts[w].Op != a64.OpBlr) {
			mc.errf(sm.NativeOff, RuleSafepoint,
				"stack map entry does not sit on a call instruction")
		}
	}
}

// summary collects the per-method statistics after all passes ran.
func (mc *methodCtx) summary() MethodSummary {
	s := MethodSummary{ID: mc.id(), Calls: mc.calls}
	for w := range mc.words {
		switch {
		case mc.data[w]:
			s.DataWords++
		case mc.decoded[w]:
			s.Insts++
		}
	}
	if mc.cfg != nil {
		s.Blocks = len(mc.cfg.Blocks)
		for bi := range mc.cfg.Blocks {
			if bi < len(mc.reach) && !mc.reach[bi] {
				s.DeadBlocks++
			}
		}
	}
	return s
}

func dexID(i int) dex.MethodID { return dex.MethodID(i) }

func methodName(id dex.MethodID) string { return fmt.Sprintf("m%d", id) }
