package analysis

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/a64"
	"repro/internal/abi"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
	"repro/internal/par"
)

// The call-graph walk lifts the per-method analysis to the whole image: it
// classifies every call site of every method, recovering the callee of the
// ART Java-call pattern by abstract constant propagation. A Java call
// materializes the callee's ArtMethod address into x0 (movz/movn/movk)
// and then either bl's the java_entry thunk or inlines the
// `ldr lr, [x0, #EntryPointOffset]; blr lr` pair — so tracking 16-bit
// constant chunks per register, plus "value loaded from the entry-point
// field of ArtMethod(id)", resolves the callee without any compile-time
// metadata. Outlined calls are replayed through the blob body exactly as
// the dataflow pass does, so a materialization the outliner moved into an
// outlined function still resolves.
//
// Anything the walk cannot prove becomes an EdgeUnknown, and reachability
// treats an unknown edge as "may call anything" — the conservative
// direction for debloat.

// EdgeKind classifies one recovered call edge.
type EdgeKind uint8

const (
	// EdgeMethod is a resolved call to a method: a direct bl to a method
	// head, a Java call whose ArtMethod constant was recovered, or a blr
	// through a loaded entry point.
	EdgeMethod EdgeKind = iota
	// EdgeOutlined is a bl into an outlined function.
	EdgeOutlined
	// EdgeThunk is a bl into a CTO pattern thunk (java_entry with an
	// unresolved receiver is reported as EdgeUnknown instead).
	EdgeThunk
	// EdgeRuntime is a call that leaves the text segment for the modeled
	// runtime (native entrypoint stubs); it cannot reach a method.
	EdgeRuntime
	// EdgeUnknown is a call whose target could not be resolved; the
	// reachability analysis treats it as possibly calling every method.
	EdgeUnknown
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeMethod:
		return "method"
	case EdgeOutlined:
		return "outlined"
	case EdgeThunk:
		return "thunk"
	case EdgeRuntime:
		return "runtime"
	default:
		return "unknown"
	}
}

// Edge is one recovered call site.
type Edge struct {
	Off    int // call-site byte offset within the caller
	Kind   EdgeKind
	Target dex.MethodID // EdgeMethod: the callee
	Sym    int          // EdgeOutlined / EdgeThunk: the callee symbol
	// Entry marks an indirect call dispatched through the entry-point
	// field of an ArtMethod (`ldr lr, [x0, #EntryPointOffset]; blr lr`).
	// Such a call is layout-independent — the runtime resolves the target
	// address from the method table, not from a constant baked into the
	// code — which is what lets the post-hoc re-outliner relocate the
	// callee. A blr edge without Entry that still resolves into the text
	// segment went through a materialized absolute address and pins its
	// target in place.
	Entry bool
}

// CGNode is the per-method view of the call graph.
type CGNode struct {
	ID      dex.MethodID
	Size    int // byte size of the method region; 0 marks a debloated stub
	Edges   []Edge
	Unknown bool // at least one EdgeUnknown
	Corrupt bool // record malformed: edges unrecoverable, modeled as unknown
}

// CGBlob is the per-outlined-function view. A well-formed outlined
// function is straight-line code and has no out-edges; edges appear only
// on corrupt images and feed the recursive-outline-cycle rule.
type CGBlob struct {
	Sym    int
	Offset int
	Size   int
	Edges  []Edge
}

// CallGraph is the whole-image call graph. Nodes is indexed by method
// table slot, and node i carries ID i even when slot i's record claims
// another; Blobs lists the well-formed outlined-function records in text
// order.
type CallGraph struct {
	Nodes []CGNode
	Blobs []CGBlob

	blobIndex map[int]int // blob text offset -> Blobs index
	thunkSyms []int       // thunk record symbols, in region order
}

// NumEdges returns the total recovered call-site count.
func (cg *CallGraph) NumEdges() int {
	n := 0
	for _, nd := range cg.Nodes {
		n += len(nd.Edges)
	}
	for _, b := range cg.Blobs {
		n += len(b.Edges)
	}
	return n
}

// BuildCallGraphCtx recovers the whole-image call graph on at most
// workers goroutines (<= 0 selects GOMAXPROCS). It never panics on
// malformed input: corrupt records degrade to findings plus conservative
// (Corrupt/Unknown) nodes. The findings include the record-table and
// blob-shape diagnostics the layout pass produces, so a standalone caller
// sees every structural reason an edge is missing. The graph and findings
// are byte-identical for every width. When ctx is cancelled before the
// walk completes it returns (nil, nil).
func BuildCallGraphCtx(ctx context.Context, img *oat.Image, workers int) (*CallGraph, []Finding) {
	var fs findings
	l := buildLayout(img, &fs)
	for _, r := range l.regions {
		if r.kind == regionBlob {
			l.checkBlob(r, &fs)
		}
	}
	cg, _, err := buildCallGraphFrom(ctx, l, nil, workers, &fs)
	if err != nil {
		return nil, nil
	}
	sortFindings(fs.list)
	return cg, fs.list
}

// buildCallGraphFrom walks an already-indexed layout (blob bodies decoded)
// and appends only the walk's own findings — the engine shares one layout
// between the per-method pass and this walk, so record/blob findings are
// not duplicated here. carried holds, per method-table slot, a walk
// already proven valid for this image's method (see the reuse key in
// reuse.go), or nil; those methods are not walked again. It returns the
// walk of every method region, indexed by slot.
func buildCallGraphFrom(ctx context.Context, l *layout, carried []*methodWalk, workers int, fs *findings) (*CallGraph, []*methodWalk, error) {
	img := l.img
	cg := &CallGraph{
		Nodes:     make([]CGNode, len(img.Methods)),
		blobIndex: map[int]int{},
	}
	for _, r := range l.regions {
		switch r.kind {
		case regionBlob:
			cg.blobIndex[r.off] = len(cg.Blobs)
			cg.Blobs = append(cg.Blobs, CGBlob{Sym: r.sym, Offset: r.off, Size: r.size})
		case regionThunk:
			cg.thunkSyms = append(cg.thunkSyms, r.sym)
		}
	}

	// Every method not represented by a well-formed region is corrupt:
	// its calls are unrecoverable, so reachability must assume the worst.
	walks := make([]*methodWalk, len(img.Methods))
	var todo []region
	for _, r := range l.regions {
		if r.kind != regionMethod {
			continue
		}
		if carried != nil && carried[r.method] != nil {
			walks[r.method] = carried[r.method]
		} else {
			todo = append(todo, r)
		}
	}
	results, err := par.MapCtx(ctx, workers, len(todo), func(i int) (*methodWalk, error) {
		return walkMethod(l, todo[i]), nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, mw := range results {
		walks[todo[i].method] = mw
	}
	for i := range img.Methods {
		if mw := walks[i]; mw != nil {
			cg.Nodes[i] = mw.node
			fs.list = append(fs.list, mw.fs...)
		} else {
			// The node models the slot, whatever ID its record claims.
			cg.Nodes[i] = CGNode{ID: dexID(i), Corrupt: true, Unknown: true}
		}
	}

	// Blob out-edges exist only on corrupt images (a well-formed outlined
	// function is straight-line); they are what makes an outline cycle
	// representable at all.
	for bi := range cg.Blobs {
		b := &cg.Blobs[bi]
		words := img.Text[b.Offset/a64.WordSize : (b.Offset+b.Size)/a64.WordSize]
		for w, word := range words {
			inst, ok := a64.Decode(word)
			if !ok || (inst.Op != a64.OpBl && inst.Op != a64.OpB) {
				continue
			}
			abs := b.Offset + w*a64.WordSize + int(inst.Imm)
			if r, ok := l.at(abs); ok && abs == r.off {
				switch r.kind {
				case regionMethod:
					b.Edges = append(b.Edges, Edge{Off: w * a64.WordSize, Kind: EdgeMethod, Target: dexID(r.method)})
				case regionBlob:
					b.Edges = append(b.Edges, Edge{Off: w * a64.WordSize, Kind: EdgeOutlined, Sym: r.sym})
				}
			}
		}
	}
	return cg, walks, nil
}

// Abstract register values for the constant-propagation walk.
const (
	valUnknown uint8 = iota
	valConst         // v holds the 64-bit constant
	valEntry         // value loaded from ArtMethod(v).entry_point
)

type absVal struct {
	kind uint8
	v    int64
}

// walkState is the per-block abstract register file.
type walkState [31]absVal

// methodWalk is one method's share of the call-graph walk: its node, its
// findings, and what deciding its reuse in a later image needs.
type methodWalk struct {
	node CGNode
	fs   []Finding
	// pinned marks a walk that read a materialized text address: its
	// result depends on where the target sits.
	pinned bool
	// high is the smallest call-target constant at or above the text base
	// that the walk classified as leaving the text segment (math.MaxInt64
	// when there is none); the walk holds for a text segment ending at or
	// below it.
	high int64
}

// walkMethod recovers one method's call edges. It decodes the region
// directly (via the bounds-checked layout, never a raw record) so a
// truncated or corrupt record can only have produced a finding upstream,
// never a panic here.
func walkMethod(l *layout, r region) *methodWalk {
	mw := &methodWalk{node: CGNode{ID: dexID(r.method), Size: r.size}, high: math.MaxInt64}
	var fs findings
	rec := l.img.Methods[r.method]
	words := l.words(r)
	n := len(words)

	data := dataWords(rec.Meta.EmbeddedData, r.size)
	insts := make([]a64.Inst, n)
	decoded := make([]bool, n)
	writesTR := false
	for w, word := range words {
		if data[w] {
			continue
		}
		if inst, ok := a64.Decode(word); ok {
			insts[w], decoded[w] = inst, true
			if writesReg(inst, a64.TR) {
				writesTR = true
			}
		}
	}

	// Leaders reset the abstract state: constants only flow within a
	// basic block, which is all the ART calling patterns need.
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for w := 0; w < n; w++ {
		if !decoded[w] {
			if w+1 < n {
				leader[w+1] = true
			}
			continue
		}
		inst := insts[w]
		if blockEnder(inst.Op) && w+1 < n {
			leader[w+1] = true
		}
		switch inst.Op {
		case a64.OpB, a64.OpBCond, a64.OpCbz, a64.OpCbnz, a64.OpTbz, a64.OpTbnz:
			if t := w*a64.WordSize + int(inst.Imm); t >= 0 && t < r.size && t%a64.WordSize == 0 {
				leader[t/a64.WordSize] = true
			}
		}
	}

	// The thread register is reserved: if the method never writes x19 it
	// holds ThreadBase everywhere, which is how inline runtime-entrypoint
	// loads (`ldr lr, [x19, #off]`) resolve to runtime stubs, not methods.
	var entry walkState
	if !writesTR {
		entry[a64.TR] = absVal{kind: valConst, v: abi.ThreadBase}
	}

	st := entry
	for w := 0; w < n; w++ {
		if leader[w] {
			st = entry
		}
		if !decoded[w] {
			continue
		}
		walkTransfer(l, r, mw, &fs, &st, w*a64.WordSize, insts[w])
	}
	for _, e := range mw.node.Edges {
		if e.Kind == EdgeUnknown {
			mw.node.Unknown = true
			break
		}
	}
	mw.fs = fs.list
	return mw
}

// walkTransfer applies one instruction to the abstract register file,
// recording a call edge when the instruction is a call.
func walkTransfer(l *layout, r region, mw *methodWalk, fs *findings, st *walkState, off int, inst a64.Inst) {
	setUnknown := func(reg a64.Reg) {
		if reg < 31 {
			st[reg] = absVal{}
		}
	}
	switch inst.Op {
	case a64.OpMovz:
		if inst.Rd < 31 {
			st[inst.Rd] = absVal{kind: valConst, v: narrowVal(inst.Sf, inst.Imm<<(16*int64(inst.HW)))}
		}
	case a64.OpMovn:
		if inst.Rd < 31 {
			st[inst.Rd] = absVal{kind: valConst, v: narrowVal(inst.Sf, ^(inst.Imm << (16 * int64(inst.HW))))}
		}
	case a64.OpMovk:
		if inst.Rd < 31 {
			if old := st[inst.Rd]; old.kind == valConst {
				shift := 16 * int64(inst.HW)
				st[inst.Rd] = absVal{kind: valConst, v: narrowVal(inst.Sf, old.v&^(0xFFFF<<shift)|inst.Imm<<shift)}
			} else {
				st[inst.Rd] = absVal{}
			}
		}
	case a64.OpLdrImm:
		if inst.Rd >= 31 {
			return
		}
		// A load from a known constant base may be an ArtMethod
		// entry-point read or a thread-register entrypoint-table read.
		if inst.Rn != 31 && inst.Sf {
			if base := st[inst.Rn]; base.kind == valConst {
				addr := base.v + inst.Imm
				if id, ok := artMethodEntryField(addr); ok {
					st[inst.Rd] = absVal{kind: valEntry, v: int64(id)}
					return
				}
				if k, ok := threadEntrypoint(addr); ok {
					st[inst.Rd] = absVal{kind: valConst, v: abi.NativeStubAddr(k)}
					return
				}
			}
		}
		st[inst.Rd] = absVal{}

	case a64.OpBl:
		mw.node.Edges = append(mw.node.Edges, classifyBl(l, r, mw, fs, st, off, inst))
	case a64.OpBlr:
		mw.node.Edges = append(mw.node.Edges, classifyBlr(l, r, mw, fs, st, off, inst))

	default:
		for reg := a64.Reg(0); reg < 31; reg++ {
			if writesReg(inst, reg) {
				setUnknown(reg)
			}
		}
	}
}

// clobberCallRegs applies the AAPCS effect of a real call to the abstract
// register file: caller-saved x0..x17 and the link register are gone.
func clobberCallRegs(st *walkState) {
	for reg := 0; reg <= 17; reg++ {
		st[reg] = absVal{}
	}
	st[a64.LR] = absVal{}
}

// classifyBl resolves a direct call site.
func classifyBl(l *layout, r region, mw *methodWalk, fs *findings, st *walkState, off int, inst a64.Inst) Edge {
	abs := r.off + off + int(inst.Imm)
	tr, ok := l.at(abs)
	if !ok || abs != tr.off {
		reportDanglingCall(l, fs, dexID(r.method), off, abs, ok)
		clobberCallRegs(st)
		return Edge{Off: off, Kind: EdgeUnknown}
	}
	switch tr.kind {
	case regionMethod:
		clobberCallRegs(st)
		return Edge{Off: off, Kind: EdgeMethod, Target: dexID(tr.method)}
	case regionBlob:
		// Replay the outlined body: it is the caller's own straight-line
		// code and may carry part of a callee materialization.
		if info := l.blobs[tr.off]; info != nil && info.ok {
			for _, bi := range info.insts[:len(info.insts)-1] {
				walkTransfer(l, r, mw, fs, st, off, bi)
			}
		} else {
			clobberCallRegs(st)
		}
		return Edge{Off: off, Kind: EdgeOutlined, Sym: tr.sym}
	default: // thunk
		kind, _ := codegen.UnpackSym(tr.sym)
		if kind == codegen.SymKindJavaEntry {
			edge := resolveJavaCall(l, fs, dexID(r.method), off, st[a64.X0])
			// A resolved java call still flows through the thunk: keep
			// its symbol on the edge so reachability keeps the thunk.
			edge.Sym = tr.sym
			clobberCallRegs(st)
			return edge
		}
		clobberCallRegs(st)
		return Edge{Off: off, Kind: EdgeThunk, Sym: tr.sym}
	}
}

// classifyBlr resolves an indirect call site from the abstract value of
// its target register.
func classifyBlr(l *layout, r region, mw *methodWalk, fs *findings, st *walkState, off int, inst a64.Inst) Edge {
	val := absVal{}
	if inst.Rn < 31 {
		val = st[inst.Rn]
	}
	defer clobberCallRegs(st)
	switch val.kind {
	case valEntry:
		edge := resolveJavaCall(l, fs, dexID(r.method), off, absVal{kind: valConst, v: abi.ArtMethodAddr(uint32(val.v))})
		edge.Entry = true
		return edge
	case valConst:
		text := int64(l.img.TextBytes())
		if val.v < abi.TextBase || val.v >= abi.TextBase+text {
			if val.v >= abi.TextBase {
				mw.high = min(mw.high, val.v)
			}
			return Edge{Off: off, Kind: EdgeRuntime}
		}
		mw.pinned = true
		abs := int(val.v - abi.TextBase)
		tr, ok := l.at(abs)
		if !ok || abs != tr.off {
			reportDanglingCall(l, fs, dexID(r.method), off, abs, ok)
			return Edge{Off: off, Kind: EdgeUnknown}
		}
		switch tr.kind {
		case regionMethod:
			return Edge{Off: off, Kind: EdgeMethod, Target: dexID(tr.method)}
		case regionBlob:
			return Edge{Off: off, Kind: EdgeOutlined, Sym: tr.sym}
		default:
			return Edge{Off: off, Kind: EdgeThunk, Sym: tr.sym}
		}
	default:
		fs.add(SevInfo, dexID(r.method), off, RuleCallGraph,
			"indirect call with unresolved target; reachability treats it as calling every method")
		return Edge{Off: off, Kind: EdgeUnknown}
	}
}

// resolveJavaCall cross-checks a recovered ArtMethod constant against the
// record table and produces the method edge.
func resolveJavaCall(l *layout, fs *findings, caller dex.MethodID, off int, x0 absVal) Edge {
	if x0.kind != valConst {
		fs.add(SevInfo, caller, off, RuleCallGraph,
			"java call with unresolved ArtMethod; reachability treats it as calling every method")
		return Edge{Off: off, Kind: EdgeUnknown}
	}
	id, ok := artMethodID(x0.v)
	if !ok {
		fs.add(SevError, caller, off, RuleCallGraph,
			"java call through %#x, which is not an ArtMethod address", x0.v)
		return Edge{Off: off, Kind: EdgeUnknown}
	}
	if int(id) >= len(l.img.Methods) {
		fs.add(SevError, caller, off, RuleCallGraph,
			"java call to m%d, which has no record (table holds %d methods)", id, len(l.img.Methods))
		return Edge{Off: off, Kind: EdgeUnknown}
	}
	return Edge{Off: off, Kind: EdgeMethod, Target: id}
}

// reportDanglingCall files the call-into-removed-range finding: the call
// target is inside the text segment but in no region (a gap a rewriting
// pass left behind), or outside the segment entirely.
func reportDanglingCall(l *layout, fs *findings, caller dex.MethodID, off, abs int, inText bool) {
	if abs >= 0 && abs < l.img.TextBytes() {
		if _, ok := l.at(abs); !ok {
			fs.add(SevError, caller, off, RuleCallRemoved,
				"call target +%#x lies in a removed range of the text segment", abs)
			return
		}
		if !inText {
			return
		}
		// Interior of a live region: the per-method pass owns that
		// diagnostic (call-target/blob-entry); record only the edge here.
		fs.add(SevInfo, caller, off, RuleCallGraph,
			"call enters a region interior at +%#x; edge unresolved", abs)
		return
	}
	fs.add(SevError, caller, off, RuleCallRemoved,
		"call target +%#x is outside the text segment", abs)
}

// artMethodID maps an ArtMethod base address to its method ID.
func artMethodID(addr int64) (dex.MethodID, bool) {
	if addr < abi.ArtMethodBase || (addr-abi.ArtMethodBase)%abi.ArtMethodStride != 0 {
		return 0, false
	}
	return dex.MethodID((addr - abi.ArtMethodBase) / abi.ArtMethodStride), true
}

// artMethodEntryField reports whether addr is the entry-point field of
// some ArtMethod, and which.
func artMethodEntryField(addr int64) (dex.MethodID, bool) {
	if addr < abi.ArtMethodBase {
		return 0, false
	}
	if (addr-abi.ArtMethodBase)%abi.ArtMethodStride != abi.EntryPointOffset {
		return 0, false
	}
	return dex.MethodID((addr - abi.ArtMethodBase) / abi.ArtMethodStride), true
}

// threadEntrypoint reports whether addr is an entry of the thread
// register's runtime entrypoint table, mirroring the emulator's model.
func threadEntrypoint(addr int64) (int, bool) {
	off := addr - abi.ThreadBase
	if off < 0x200 || off >= 0x1000 || off%8 != 0 {
		return 0, false
	}
	k := int((off - 0x200) / 8)
	if k >= dex.NumNativeFuncs {
		return 0, false
	}
	return k, true
}

// narrowVal mirrors the emulator's 32/64-bit register write semantics.
func narrowVal(sf bool, v int64) int64 {
	if sf {
		return v
	}
	return int64(uint32(v))
}

// WriteDump renders the call graph as deterministic text, one line per
// method that has edges, in table order with edges in call-site order.
// Tooling (oatlint -callgraph) and the golden tests consume this format.
func (cg *CallGraph) WriteDump(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "callgraph: %d methods, %d outlined, %d edges\n",
		len(cg.Nodes), len(cg.Blobs), cg.NumEdges()); err != nil {
		return err
	}
	for _, nd := range cg.Nodes {
		if nd.Corrupt {
			if _, err := fmt.Fprintf(w, "m%d: corrupt record\n", nd.ID); err != nil {
				return err
			}
			continue
		}
		if len(nd.Edges) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "m%d:", nd.ID); err != nil {
			return err
		}
		for _, e := range nd.Edges {
			var s string
			switch e.Kind {
			case EdgeMethod:
				s = fmt.Sprintf(" m%d", e.Target)
			case EdgeOutlined, EdgeThunk:
				s = " " + codegen.SymName(e.Sym)
			case EdgeRuntime:
				s = " runtime"
			default:
				s = " ?"
			}
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	for _, b := range cg.Blobs {
		if len(b.Edges) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%s: %d edges (malformed outlined body)\n",
			codegen.SymName(b.Sym), len(b.Edges)); err != nil {
			return err
		}
	}
	return nil
}

// MethodCallees returns the deduplicated, sorted method-callee list of one
// node — the shape tests and reports compare against ground truth.
func (cg *CallGraph) MethodCallees(id dex.MethodID) []dex.MethodID {
	if int(id) >= len(cg.Nodes) {
		return nil
	}
	seen := map[dex.MethodID]bool{}
	var out []dex.MethodID
	for _, e := range cg.Nodes[id].Edges {
		if e.Kind == EdgeMethod && !seen[e.Target] {
			seen[e.Target] = true
			out = append(out, e.Target)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
