package analysis

import (
	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/dex"
	"repro/internal/oat"
)

// CFG is the control-flow graph recovered from one method's linked code.
// Blocks are in ascending address order; the block containing offset 0 is
// the entry. Embedded-data words (literal pools, jump tables) belong to no
// block.
type CFG struct {
	Blocks []Block
}

// Block is one basic block: a maximal straight-line run of instructions.
type Block struct {
	Start int    // byte offset of the first instruction, method-relative
	End   int    // byte offset one past the last instruction
	Succs []int  // successor block indices
	Term  a64.Op // control transfer ending the block; OpInvalid on fall-through splits
}

// NumInsts returns the instruction count of the block.
func (b Block) NumInsts() int { return (b.End - b.Start) / a64.WordSize }

// MethodCFG recovers the control-flow graph of one method of a linked
// image, along with any findings the recovery itself produced (decode
// failures, branch-target violations, unresolvable indirect branches).
func MethodCFG(img *oat.Image, id dex.MethodID) (*CFG, []Finding) {
	var fs findings
	l := buildLayout(img, &fs)
	for _, r := range l.regions {
		if r.kind == regionBlob {
			l.checkBlob(r, &findings{}) // populate blob index, discard findings
		}
	}
	for _, r := range l.regions {
		if r.kind == regionMethod && r.method == int(id) {
			mc := newMethodCtx(l, r, &fs)
			mc.recoverCFG()
			return mc.cfg, fs.list
		}
	}
	fs.add(SevError, id, -1, RuleRecord, "method has no well-formed record")
	return nil, fs.list
}

// methodCtx holds the per-method decoding state shared by the CFI, CFG,
// and dataflow passes.
type methodCtx struct {
	l   *layout
	r   region
	rec oat.MethodRecord
	fs  *findings

	words   []uint32
	data    []bool     // word marked embedded data by the LTBO metadata
	insts   []a64.Inst // valid where decoded[w]
	decoded []bool

	sound       bool          // every non-data word decodes; deep passes are meaningful
	switchSuccs map[int][]int // br word index -> resolved target word indices
	cfg         *CFG
	blockAt     []int // word index -> block index, -1 for data/none
	reach       []bool
	calls       int

	// pinned marks a result that depends on absolute position beyond
	// its bl targets (a branch out of the method, a PC-relative record on
	// a bl): the reuse key (reuse.go) never takes it.
	pinned bool
}

func newMethodCtx(l *layout, r region, fs *findings) *methodCtx {
	rec := l.img.Methods[r.method]
	n := r.size / a64.WordSize
	mc := &methodCtx{
		l: l, r: r, rec: rec, fs: fs,
		words:       l.words(r),
		data:        make([]bool, n),
		insts:       make([]a64.Inst, n),
		decoded:     make([]bool, n),
		sound:       true,
		switchSuccs: map[int][]int{},
	}
	for _, d := range rec.Meta.EmbeddedData {
		if !wellFormedData(d, r.size) {
			mc.errf(d.Start, RuleMetadata, "embedded-data range [%#x,%#x) out of method bounds", d.Start, d.End)
			continue
		}
		for w := d.Start / a64.WordSize; w < d.End/a64.WordSize; w++ {
			mc.data[w] = true
		}
	}
	for w, word := range mc.words {
		if mc.data[w] {
			continue
		}
		inst, ok := a64.Decode(word)
		if !ok {
			mc.errf(w*a64.WordSize, RuleDecode,
				"word %#08x outside embedded data does not decode", word)
			mc.sound = false
			continue
		}
		mc.insts[w] = inst
		mc.decoded[w] = true
	}
	return mc
}

// wellFormedData reports whether an embedded-data range lies inside a
// method of size bytes and starts on a word. Every pass ignores any other
// range; the per-method pass reports it.
func wellFormedData(d a64.Range, size int) bool {
	return d.Start >= 0 && d.End >= d.Start && d.End <= size && d.Start%a64.WordSize == 0
}

func (mc *methodCtx) id() dex.MethodID { return mc.rec.ID }

func (mc *methodCtx) errf(off int, rule, format string, args ...any) {
	mc.fs.add(SevError, mc.id(), off, rule, format, args...)
}

func (mc *methodCtx) warnf(off int, rule, format string, args ...any) {
	mc.fs.add(SevWarn, mc.id(), off, rule, format, args...)
}

// blockEnder reports whether the op terminates a basic block. Calls (bl,
// blr) fall through to the next instruction and do not end blocks.
func blockEnder(op a64.Op) bool {
	switch op {
	case a64.OpB, a64.OpBCond, a64.OpCbz, a64.OpCbnz, a64.OpTbz, a64.OpTbnz,
		a64.OpBr, a64.OpRet, a64.OpBrk:
		return true
	}
	return false
}

// condBranch reports whether the op is a conditional branch (falls through
// when untaken).
func condBranch(op a64.Op) bool {
	switch op {
	case a64.OpBCond, a64.OpCbz, a64.OpCbnz, a64.OpTbz, a64.OpTbnz:
		return true
	}
	return false
}

// checkCFI validates every control transfer (§3.5 / the tentpole's rule
// set) and resolves indirect branches, recording findings as it goes. It
// must run before recoverCFG: block successors depend on the resolved
// switch tables.
func (mc *methodCtx) checkCFI() {
	n := len(mc.words)
	for w := 0; w < n; w++ {
		if !mc.decoded[w] {
			continue
		}
		inst := mc.insts[w]
		off := w * a64.WordSize
		switch inst.Op {
		case a64.OpB, a64.OpBCond, a64.OpCbz, a64.OpCbnz, a64.OpTbz, a64.OpTbnz:
			mc.checkLocalBranch(off, inst)
		case a64.OpBl:
			mc.calls++
			mc.checkCall(off, inst)
		case a64.OpBlr:
			mc.calls++
		case a64.OpBr:
			if targets, ok := mc.resolveSwitch(w); ok {
				mc.switchSuccs[w] = targets
			}
			if !mc.rec.Meta.HasIndirectJump {
				mc.warnf(off, RuleMetadata,
					"method contains a computed branch but HasIndirectJump is unset")
			}
		case a64.OpLdrLit, a64.OpAdr:
			mc.checkLiteral(off, inst)
		}
	}
}

// checkLocalBranch enforces the intra-method rule: the target lands on an
// instruction boundary inside the same method, never on data and never in
// another region.
func (mc *methodCtx) checkLocalBranch(off int, inst a64.Inst) {
	target := off + int(inst.Imm)
	if target < 0 || target >= mc.r.size {
		mc.pinned = true
		where := "outside the text segment"
		if r, ok := mc.l.at(mc.r.off + target); ok {
			if r.kind == regionBlob {
				mc.errf(off, RuleBlobEntry, "%s branches into %s",
					inst.Op, codegen.SymName(r.sym))
				return
			}
			where = "into " + describeRegion(r)
		}
		mc.errf(off, RuleBranchTarget, "%s target %#x escapes the method (size %#x) %s",
			inst.Op, target, mc.r.size, where)
		return
	}
	if target%a64.WordSize != 0 {
		mc.errf(off, RuleBranchTarget, "%s target %#x is not an instruction boundary", inst.Op, target)
		return
	}
	if mc.data[target/a64.WordSize] {
		mc.errf(off, RuleBranchTarget, "%s target %#x lands in embedded data", inst.Op, target)
	}
}

// checkCall enforces the bl rule: the callee is a method entry, a pattern
// thunk head, or an outlined-function head — never the interior of any
// region.
func (mc *methodCtx) checkCall(off int, inst a64.Inst) {
	abs := mc.r.off + off + int(inst.Imm)
	r, ok := mc.l.at(abs)
	if !ok {
		mc.errf(off, RuleCallTarget, "bl target %#x is outside every code region", abs)
		return
	}
	if abs == r.off {
		return // a head of some region: legal callee
	}
	switch r.kind {
	case regionBlob:
		mc.errf(off, RuleBlobEntry, "bl enters %s at interior offset %#x",
			codegen.SymName(r.sym), abs-r.off)
	default:
		mc.errf(off, RuleCallTarget, "bl enters %s at interior offset %#x",
			describeRegion(r), abs-r.off)
	}
}

// checkLiteral validates PC-relative data references: LDR (literal) and
// ADR must point inside the method; pointing outside its embedded-data
// ranges means code is being read as data.
func (mc *methodCtx) checkLiteral(off int, inst a64.Inst) {
	target := off + int(inst.Imm)
	if target < 0 || target+a64.WordSize > mc.r.size {
		mc.errf(off, RuleLiteral, "%s target %#x outside the method", inst.Op, target)
		return
	}
	if target%a64.WordSize == 0 && !mc.data[target/a64.WordSize] {
		mc.warnf(off, RuleLiteral, "%s target %#x is not embedded data", inst.Op, target)
	}
}

// resolveSwitch recovers the targets of a computed branch by matching the
// code generator's packed-switch idiom:
//
//	subs xzr, xI, #n      ; bound check
//	b.hs fallthrough
//	adr  x16, table
//	ldr  x17, [x16, xI, lsl #3]
//	add  x17, x16, x17
//	br   x17
//
// and reading the n 8-byte table entries (target - table displacements)
// out of the embedded data. This is the one place CFG recovery needs an
// idiom: everything else follows from instruction decoding alone.
func (mc *methodCtx) resolveSwitch(w int) ([]int, bool) {
	off := w * a64.WordSize
	fail := func(format string, args ...any) ([]int, bool) {
		mc.errf(off, RuleIndirect, "unresolvable computed branch: "+format, args...)
		return nil, false
	}
	if w < 5 {
		return fail("no room for the switch idiom before it")
	}
	for i := w - 5; i < w; i++ {
		if !mc.decoded[i] {
			return fail("preceding word at %#x is not an instruction", i*a64.WordSize)
		}
	}
	br, add, ldr, adr, bcc, subs :=
		mc.insts[w], mc.insts[w-1], mc.insts[w-2], mc.insts[w-3], mc.insts[w-4], mc.insts[w-5]
	switch {
	case br.Rn != a64.IP1:
		return fail("br through x%d, want x17", br.Rn)
	case add.Op != a64.OpAddReg || add.Rd != a64.IP1 || add.Rn != a64.IP0 || add.Rm != a64.IP1:
		return fail("missing table-base add")
	case ldr.Op != a64.OpLdrReg || ldr.Rd != a64.IP1 || ldr.Rn != a64.IP0:
		return fail("missing table load")
	case adr.Op != a64.OpAdr || adr.Rd != a64.IP0:
		return fail("missing table adr")
	case bcc.Op != a64.OpBCond || bcc.Cond != a64.HS:
		return fail("missing bound-check branch")
	case subs.Op != a64.OpSubsImm || subs.Rd != 31 || subs.Shift12:
		return fail("missing bound-check compare")
	}
	table := (w-3)*a64.WordSize + int(adr.Imm)
	count := int(subs.Imm)
	if table < 0 || table%a64.WordSize != 0 || table+8*count > mc.r.size {
		return fail("table [%#x,%#x) outside the method", table, table+8*count)
	}
	targets := make([]int, 0, count)
	for i := 0; i < count; i++ {
		lo, hi := table/a64.WordSize+2*i, table/a64.WordSize+2*i+1
		if !mc.data[lo] || !mc.data[hi] {
			return fail("table entry %d at %#x is not embedded data", i, table+8*i)
		}
		disp := int64(mc.words[lo]) | int64(mc.words[hi])<<32
		t := table + int(disp)
		if t < 0 || t >= mc.r.size || t%a64.WordSize != 0 || mc.data[t/a64.WordSize] {
			return fail("table entry %d target %#x is not an instruction of the method", i, t)
		}
		targets = append(targets, t/a64.WordSize)
	}
	return targets, true
}

// recoverCFG builds the basic-block graph. checkCFI has populated the
// switch successor map; block successors that would leave the instruction
// stream (falling into data, off the method end) produce findings here.
func (mc *methodCtx) recoverCFG() {
	if mc.cfg != nil {
		return
	}
	mc.checkCFI()
	n := len(mc.words)
	leader := make([]bool, n+1)
	leader[0] = true
	for w := 0; w < n; w++ {
		if !mc.decoded[w] {
			leader[w+1] = true // data/undecodable runs break blocks
			continue
		}
		inst := mc.insts[w]
		if blockEnder(inst.Op) {
			leader[w+1] = true
		}
		switch inst.Op {
		case a64.OpB, a64.OpBCond, a64.OpCbz, a64.OpCbnz, a64.OpTbz, a64.OpTbnz:
			t := w*a64.WordSize + int(inst.Imm)
			if t >= 0 && t < mc.r.size && t%a64.WordSize == 0 {
				leader[t/a64.WordSize] = true
			}
		case a64.OpBr:
			for _, t := range mc.switchSuccs[w] {
				leader[t] = true
			}
		}
	}

	cfg := &CFG{}
	mc.blockAt = make([]int, n)
	for i := range mc.blockAt {
		mc.blockAt[i] = -1
	}
	for w := 0; w < n; {
		if !mc.decoded[w] {
			w++
			continue
		}
		start := w
		for {
			mc.blockAt[w] = len(cfg.Blocks)
			if blockEnder(mc.insts[w].Op) || w+1 >= n || leader[w+1] || !mc.decoded[w+1] {
				break
			}
			w++
		}
		cfg.Blocks = append(cfg.Blocks, Block{
			Start: start * a64.WordSize,
			End:   (w + 1) * a64.WordSize,
		})
		w++
	}

	// Successor edges, now that block indices are final.
	for bi := range cfg.Blocks {
		b := &cfg.Blocks[bi]
		last := b.End/a64.WordSize - 1
		inst := mc.insts[last]
		fall := func() {
			next := b.End / a64.WordSize
			switch {
			case next >= n:
				mc.errf(b.End-a64.WordSize, RuleBranchTarget,
					"control falls off the end of the method")
			case !mc.decoded[next]:
				mc.errf(b.End-a64.WordSize, RuleBranchTarget,
					"control falls through into embedded data at %#x", b.End)
			default:
				b.Succs = append(b.Succs, mc.blockAt[next])
			}
		}
		local := func() {
			t := last*a64.WordSize + int(inst.Imm)
			if t >= 0 && t < mc.r.size && t%a64.WordSize == 0 && mc.blockAt[t/a64.WordSize] >= 0 {
				b.Succs = append(b.Succs, mc.blockAt[t/a64.WordSize])
			}
		}
		switch {
		case inst.Op == a64.OpB:
			b.Term = inst.Op
			local()
		case condBranch(inst.Op):
			b.Term = inst.Op
			local()
			fall()
		case inst.Op == a64.OpBr:
			b.Term = inst.Op
			for _, t := range mc.switchSuccs[last] {
				if mc.blockAt[t] >= 0 {
					b.Succs = append(b.Succs, mc.blockAt[t])
				}
			}
		case inst.Op == a64.OpRet, inst.Op == a64.OpBrk:
			b.Term = inst.Op
		default:
			fall() // block split by a leader or a data run
		}
	}
	mc.cfg = cfg
	mc.markReachable()
}

// markReachable walks the CFG from the entry block and reports dead code.
func (mc *methodCtx) markReachable() {
	mc.reach = make([]bool, len(mc.cfg.Blocks))
	if len(mc.cfg.Blocks) == 0 {
		if mc.r.size > 0 && !mc.data[0] {
			mc.errf(0, RuleDecode, "method has no recoverable instructions")
		}
		return
	}
	if mc.cfg.Blocks[0].Start != 0 {
		mc.errf(0, RuleBranchTarget, "method entry at offset 0 is not an instruction")
		return
	}
	work := []int{0}
	mc.reach[0] = true
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range mc.cfg.Blocks[bi].Succs {
			if !mc.reach[s] {
				mc.reach[s] = true
				work = append(work, s)
			}
		}
	}
	for bi, b := range mc.cfg.Blocks {
		if !mc.reach[bi] {
			mc.fs.add(SevInfo, mc.id(), b.Start, RuleDeadCode,
				"unreachable block of %d instructions", b.NumInsts())
		}
	}
}

func describeRegion(r region) string {
	if r.kind == regionMethod {
		return methodName(dexID(r.method))
	}
	return codegen.SymName(r.sym)
}
