// Package codegen translates optimized HGraph methods into AArch64 binary
// code the way DEX2OAT's instruction-template code generator does, and
// implements the compilation-time half of Calibro:
//
//   - CTO (§3.1): the three ART-specific repetitive code patterns — the
//     Java-call pattern, the runtime-entrypoint call pattern, and the
//     stack-overflow check — are emitted as one-instruction calls to shared
//     pattern thunks when Options.CTO is set.
//   - LTBO.1 (§3.2): alongside every method's code the generator records the
//     metadata the link-time outliner needs to avoid disassembly and binary
//     rewriting pitfalls: embedded-data ranges, PC-relative instructions and
//     their targets, terminator offsets, an indirect-jump flag, a native
//     flag, and slow-path ranges.
//
// Code layout per method: prologue, one template per IR instruction, inline
// epilogues at returns, slow paths (cold), then the literal pool (embedded
// data).
package codegen

import (
	"context"
	"fmt"

	"repro/internal/a64"
	"repro/internal/cache"
	"repro/internal/dex"
	"repro/internal/hgraph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options selects compilation-time behaviour.
type Options struct {
	// CTO enables compilation-time outlining of the three ART-specific
	// patterns (§3.1).
	CTO bool
	// Optimize runs the HGraph pass pipeline before code generation.
	// The baseline configuration of the paper has it enabled.
	Optimize bool
	// Workers bounds the per-method compile fan-out; <= 0 selects
	// runtime.GOMAXPROCS(0). The output is byte-identical for every
	// value: methods land at their MethodID slot and the lowest failing
	// method's error wins.
	Workers int
	// Tracer, when non-nil, records one span per compiled method on the
	// worker lane that ran it (category "compile", with its queue wait).
	// Tracing observes only: the compiled output is byte-identical with
	// tracing on or off.
	Tracer *obs.Tracer
	// Cache, when non-nil, is the content-addressed compilation cache: a
	// method whose CacheKey is already stored decodes the cached artifact
	// instead of being compiled, and every miss populates the store. The
	// cache changes scheduling and work, never output — a warm build is
	// byte-identical to a cold one at every Workers value, and a corrupt
	// or version-skewed entry reads as a miss, never an error.
	Cache *cache.Cache
}

// Meta is the compile-time information recorded for the link-time binary
// outliner (LTBO.1, paper §3.2).
type Meta struct {
	// PCRel lists every intra-method PC-relative instruction with the
	// offset of its target, both relative to the method start.
	PCRel []a64.Reloc
	// Terminators holds byte offsets of control-transfer instructions:
	// basic-block terminators plus calls, the boundaries the outliner may
	// never cross.
	Terminators []int
	// EmbeddedData lists byte ranges inside the code that hold data, not
	// instructions (literal pools, jump tables).
	EmbeddedData []a64.Range
	// Slowpaths lists cold exception-path code ranges; these may be
	// outlined even inside hot methods (§3.4.2).
	Slowpaths []a64.Range
	// HasIndirectJump marks methods containing a computed branch; they are
	// excluded from outlining for correctness (§3.2).
	HasIndirectJump bool
	// IsNative marks JNI stubs; excluded from outlining (§3.2).
	IsNative bool
}

// StackMapEntry maps a native code offset (a safepoint: every call site)
// back to the dex instruction that produced it, together with the set of
// dex registers live across the safepoint — the state mapping ART needs
// for stack walking, GC, and exception delivery. Binary-level optimization
// must keep these consistent (§3.5).
type StackMapEntry struct {
	NativeOff int    // byte offset of the call instruction within the method
	DexPC     int32  // index of the source dex instruction
	Live      uint32 // bitmask of live dex registers v0..v31 after the call
}

// CompiledMethod is the unit the linker consumes.
type CompiledMethod struct {
	M        *dex.Method
	Code     []uint32
	Meta     Meta
	StackMap []StackMapEntry
	Ext      []a64.ExtRef // thunk call sites to bind at link time
}

// CodeBytes returns the code size in bytes.
func (cm *CompiledMethod) CodeBytes() int { return len(cm.Code) * a64.WordSize }

// CompileCtx translates every method of the app. The returned slice is
// indexed by dex.MethodID. Methods compile independently on
// Options.Workers goroutines; the result does not depend on the worker
// count, and with Options.Cache set it does not depend on the cache's
// state either. The per-method fan-out checks ctx before starting every
// method, so a cancelled or deadline-expired context stops the stage at
// method granularity and returns ctx.Err().
func CompileCtx(ctx context.Context, app *dex.App, opts Options) ([]*CompiledMethod, error) {
	if opts.Cache != nil {
		return compileCached(ctx, app, opts)
	}
	observer := opts.Tracer.PoolObserver("compile", func(i int) string {
		return app.Methods[i].FullName()
	})
	return par.MapObsCtx(ctx, opts.Workers, len(app.Methods), observer, func(id int) (*CompiledMethod, error) {
		m := app.Methods[id]
		cm, err := compileMethod(m, opts)
		if err != nil {
			return nil, fmt.Errorf("codegen: %s: %w", m.FullName(), err)
		}
		return cm, nil
	})
}

// compileMethod compiles one method.
func compileMethod(m *dex.Method, opts Options) (*CompiledMethod, error) {
	if m.Native {
		return compileJNIStub(m)
	}
	g, err := hgraph.Build(m)
	if err != nil {
		return nil, err
	}
	var lv *hgraph.Liveness
	if opts.Optimize {
		lv = hgraph.Optimize(g)
	} else {
		lv = hgraph.ComputeLiveness(g)
	}
	e := emitterPool.Get().(*emitter)
	e.reset(m, g, opts)
	cm, err := e.emit(lv)
	e.m, e.g = nil, nil // don't pin the graph while pooled
	emitterPool.Put(e)
	return cm, err
}

// compileJNIStub emits the fixed stub for a Java native method: return the
// first argument. Real ART JNI transitions are far richer; what matters to
// Calibro is only that such methods exist, are flagged, and are skipped.
func compileJNIStub(m *dex.Method) (*CompiledMethod, error) {
	var asm a64.Asm
	asm.Inst(a64.Inst{Op: a64.OpOrrReg, Sf: true, Rd: a64.X0, Rn: a64.XZR, Rm: a64.X1}) // mov x0, x1
	retOff := asm.Inst(a64.Inst{Op: a64.OpRet, Rn: a64.LR})
	p, err := asm.Finalize()
	if err != nil {
		return nil, err
	}
	return &CompiledMethod{
		M:    m,
		Code: p.Words,
		Meta: Meta{IsNative: true, Terminators: []int{retOff}},
	}, nil
}
