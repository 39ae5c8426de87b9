// Package reoutline re-outlines an already-linked OAT image: the post-hoc
// counterpart of the link-time LTBO pass, for binaries whose compile-time
// state is gone. It runs in four stages:
//
//  1. Lift. Every method the legality mask (analysis.LiftFrozen) admits is
//     rewritten into the sequence form the outliner consumes: calls into
//     existing outlined functions are inlined back to their body words,
//     and the remaining bl sites become symbolic again (thunk symbols,
//     or SymKindMethod tokens for direct method calls), with the LTBO.1
//     metadata and stack maps remapped through the expansion. Methods the
//     mask — or a defensive check during lifting — freezes are carried
//     through byte-for-byte.
//  2. Detect. The shared outline detector (trees, dedup —
//     the exact link-time machine) runs over the lifted bodies and
//     rewrites them, minting SymKindReoutlined functions so dumps and
//     lint rules can tell post-hoc outlining from link-time outlining.
//  3. Extract and relink. The shared image editor (oat.Rewrite) rebuilds
//     the text segment in region order: thunks and frozen methods keep
//     their bytes, original outlined functions survive only while a
//     frozen caller still needs them, new bodies are appended at the end,
//     and every call site — symbolic in lifted methods, physical bl
//     displacements in frozen ones — is re-bound to the new layout.
//  4. Re-verify. The output must pass the loader checks (oat.Validate)
//     and the full lint — the legacy per-method rules plus the paired
//     interprocedural rules (reoutlined-body-equivalent,
//     lift-frozen-untouched) against the input image — with zero
//     findings, or the pass fails rather than return the image.
//
// The pass shares its admission check with debloat (analysis.Admit): any
// error-severity finding refuses the image, and so does an indirect call
// through a materialized absolute text address, which pins its target in
// place where no freeze mask can make relocation sound.
package reoutline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/oat"
	"repro/internal/obs"
	"repro/internal/outline"
	"repro/internal/par"
)

// Config tunes the pass. The zero value runs a single global suffix tree
// with the link-time detector's default thresholds (§3.3).
type Config struct {
	// ParallelTrees partitions the lifted methods into K independent
	// suffix trees (PlOpti); <= 1 builds one global tree.
	ParallelTrees int
	// DedupFunctions merges identical re-outlined bodies across trees.
	DedupFunctions bool
	// Workers bounds every parallel stage; <= 0 selects GOMAXPROCS. The
	// output image is byte-identical at every width.
	Workers int
	// Tracer, when non-nil, records per-stage spans (reoutline.admit,
	// reoutline.lift, reoutline.detect, reoutline.relink,
	// reoutline.verify) and the reoutline.* counters.
	Tracer *obs.Tracer
}

// Stats reports what the pass did.
type Stats struct {
	MethodsTotal  int // method-table slots
	MethodsLifted int // rewritten through the detector
	MethodsFrozen int // carried through byte-for-byte (legality mask + defensive)
	MethodsStub   int // zero-size records (debloated stubs)
	// FrozenDefensive counts methods the legality mask admitted but a
	// lift-step check froze anyway; included in MethodsFrozen.
	FrozenDefensive int

	BlobsBefore   int // outlined functions in the input
	BlobsRetained int // kept because a frozen method still calls them
	BlobsCreated  int // new SymKindReoutlined functions (after dedup)
	BlobsDeduped  int // new bodies folded into an identical retained blob

	TextBefore int
	TextAfter  int

	// Outline is the detector's own statistics for the lifted corpus.
	Outline *outline.Stats

	LiftTime   time.Duration
	DetectTime time.Duration
	RelinkTime time.Duration
	VerifyTime time.Duration
}

// Saved is the pass's code-size win in bytes (negative on growth, which
// the ladder tests treat as a failure).
func (s *Stats) Saved() int { return s.TextBefore - s.TextAfter }

// RunCtx re-outlines a linked image. See the package comment for the
// contract; the input image is never modified. ctx is threaded through
// every parallel stage.
func RunCtx(ctx context.Context, img *oat.Image, cfg Config) (*oat.Image, *Stats, error) {
	st := &Stats{
		MethodsTotal: len(img.Methods),
		BlobsBefore:  len(img.Outlined),
		TextBefore:   img.TextBytes(),
	}

	// Admission: refuse anything the static verifier grades an error, and
	// images whose layout is pinned by a materialized code address.
	sp := cfg.Tracer.Start("stage", "reoutline.admit").Arg("methods", int64(len(img.Methods)))
	cg, err := analysis.Admit(ctx, img, cfg.Workers, cfg.Tracer)
	sp.End()
	if err != nil {
		return nil, st, err
	}

	// Stage 1: lift.
	t0 := time.Now()
	sp = cfg.Tracer.Start("stage", "reoutline.lift")
	frozen := analysis.LiftFrozen(img, cg)
	bodies := inlinableBodies(img)
	lifted, err := par.MapCtx(ctx, cfg.Workers, len(img.Methods), func(i int) (*codegen.CompiledMethod, error) {
		if frozen[i] {
			return nil, nil
		}
		return liftMethod(img, &img.Methods[i], cg.Nodes[i].Edges, bodies), nil
	})
	if err != nil {
		sp.End()
		return nil, st, err
	}
	for i, cm := range lifted {
		switch {
		case frozen[i]:
		case cm != nil:
			st.MethodsLifted++
		default:
			// The legality mask admitted the method but a lift step could
			// not be proven safe: freeze it instead. The lift-frozen rule
			// only audits mask-frozen methods, so extra freezes stay
			// within the contract.
			frozen[i] = true
			st.FrozenDefensive++
		}
	}
	for i := range img.Methods {
		switch {
		case img.Methods[i].Size == 0:
			st.MethodsStub++
		case lifted[i] == nil:
			st.MethodsFrozen++
		}
	}
	sp.End()
	st.LiftTime = time.Since(t0)

	// Stage 2: detect and rewrite the lifted bodies with the link-time
	// outlining machine, minting SymKindReoutlined functions.
	t1 := time.Now()
	sp = cfg.Tracer.Start("stage", "reoutline.detect").Arg("lifted", int64(st.MethodsLifted))
	var compact []*codegen.CompiledMethod
	for _, cm := range lifted {
		if cm != nil {
			compact = append(compact, cm)
		}
	}
	blobs, ost, err := outline.RunVerifiedCtx(ctx, compact, outline.Options{
		Parallel:       cfg.ParallelTrees,
		DedupFunctions: cfg.DedupFunctions,
		Workers:        cfg.Workers,
		Tracer:         cfg.Tracer,
		SymKind:        codegen.SymKindReoutlined,
	})
	sp.End()
	if err != nil {
		return nil, st, err
	}
	st.Outline = ost
	st.DetectTime = time.Since(t1)

	// Stage 3: extract and relink.
	t2 := time.Now()
	sp = cfg.Tracer.Start("stage", "reoutline.relink").Arg("new_blobs", int64(len(blobs)))
	retained := retainedBlobs(img, cg, frozen)
	renumber(compact, blobs, retained)
	// A new body byte-identical to a retained one folds into it, so a
	// frozen caller and a re-outlined caller share one body exactly as
	// they did at link time.
	var into []oat.Blob
	for _, f := range img.Outlined {
		if retained[f.Sym] {
			into = append(into, oat.Blob{Sym: f.Sym, Code: img.Text[f.Offset/4 : (f.Offset+f.Size)/4]})
		}
	}
	created := len(blobs)
	blobs = outline.FoldIdentical(compact, into, blobs, ost)
	st.BlobsDeduped = created - len(blobs)
	st.BlobsCreated = len(blobs)
	st.BlobsRetained = len(retained)
	out, err := oat.Rewrite(img, relinkEdits(img, lifted, blobs, retained))
	sp.End()
	if err != nil {
		return nil, st, fmt.Errorf("reoutline: relink: %w", err)
	}
	st.RelinkTime = time.Since(t2)
	st.TextAfter = out.TextBytes()

	// Stage 4: re-verify — loader checks, the full legacy lint, and the
	// paired interprocedural rules against the input image.
	t3 := time.Now()
	sp = cfg.Tracer.Start("stage", "reoutline.verify")
	if err := out.Validate(); err != nil {
		sp.End()
		return nil, st, fmt.Errorf("reoutline: output failed validation: %w", err)
	}
	spec := analysis.DefaultRuleSpec()
	spec.Enable(analysis.RuleReoutlinedBody)
	spec.Enable(analysis.RuleLiftFrozen)
	rep, err := analysis.RunRulesPaired(ctx, out, img, spec, analysis.RootSet{}, cfg.Workers, cfg.Tracer)
	sp.End()
	if err != nil {
		return nil, st, err
	}
	if len(rep.Findings) > 0 {
		return nil, st, fmt.Errorf("reoutline: output failed verification: %d findings, first: %s",
			len(rep.Findings), rep.Findings[0])
	}
	st.VerifyTime = time.Since(t3)

	if cfg.Tracer != nil {
		cfg.Tracer.Count("reoutline.methods_lifted", int64(st.MethodsLifted))
		cfg.Tracer.Count("reoutline.methods_frozen", int64(st.MethodsFrozen))
		cfg.Tracer.Count("reoutline.blobs_created", int64(st.BlobsCreated))
		cfg.Tracer.Count("reoutline.blobs_retained", int64(st.BlobsRetained))
		cfg.Tracer.Count("reoutline.bytes_saved", int64(st.Saved()))
	}
	return out, st, nil
}

// relinkEdits describes the relinked text segment to the image editor. It
// keeps the input's region order — the property that makes the whole pass
// idempotent — replacing each lifted method's bytes with its rewritten
// code, dropping outlined functions no frozen method calls anymore, and
// appending the newly created bodies at the end. Lifted methods carry
// symbolic call sites the editor binds; frozen methods carry physical bl
// displacements it repatches.
func relinkEdits(img *oat.Image, lifted []*codegen.CompiledMethod, blobs []oat.Blob, retained map[int]bool) []oat.Edit {
	var edits []oat.Edit
	for _, e := range oat.KeepAll(img) {
		switch e.Kind {
		case oat.EditOutlined:
			if !retained[e.Sym] {
				continue
			}
		case oat.EditMethod:
			e.Method = lifted[e.ID]
		}
		edits = append(edits, e)
	}
	for _, b := range blobs {
		edits = append(edits, oat.Edit{Kind: oat.EditOutlined, Sym: b.Sym, Code: b.Code})
	}
	return edits
}

// renumber gives each new body, in order, the lowest ReoutlinedFunction
// index no retained body holds, and re-binds its call sites in methods.
// The detector mints indices from 0, which collide with retained bodies
// of an input that was itself re-outlined; with none retained, every
// index stays as minted.
func renumber(methods []*codegen.CompiledMethod, blobs []oat.Blob, retained map[int]bool) {
	remap := map[int]int{}
	next := 0
	for i, b := range blobs {
		for retained[codegen.PackSym(codegen.SymKindReoutlined, int64(next))] {
			next++
		}
		sym := codegen.PackSym(codegen.SymKindReoutlined, int64(next))
		next++
		if sym != b.Sym {
			remap[b.Sym] = sym
			blobs[i].Sym = sym
		}
	}
	if len(remap) == 0 {
		return
	}
	for _, cm := range methods {
		for i, e := range cm.Ext {
			if sym, ok := remap[e.Symbol]; ok {
				cm.Ext[i].Symbol = sym
			}
		}
	}
}

// retainedBlobs computes which existing outlined functions must survive:
// those a frozen method still physically calls. Lifted callers had their
// calls inlined back, so a blob with only lifted callers is dropped (its
// body lives on wherever the detector put it).
func retainedBlobs(img *oat.Image, cg *analysis.CallGraph, frozen []bool) map[int]bool {
	retained := map[int]bool{}
	for i := range img.Methods {
		if !frozen[i] || img.Methods[i].Size == 0 {
			continue
		}
		for _, e := range cg.Nodes[i].Edges {
			if e.Kind == analysis.EdgeOutlined {
				retained[e.Sym] = true
			}
		}
	}
	return retained
}
