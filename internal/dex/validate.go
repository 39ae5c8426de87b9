package dex

import "fmt"

// Validate checks structural well-formedness of the whole app: register
// numbers in range, branch targets inside the method, invoke targets inside
// the method table, terminated method bodies, and consistent IDs.
//
// One definite-assignment scratch, sized for the longest body, serves
// every method, so the check allocates per method only the name it
// records for the duplicate check.
func (a *App) Validate() error {
	seen := make(map[string]struct{}, len(a.Methods))
	longest := 0
	for _, m := range a.Methods {
		if m != nil {
			longest = max(longest, len(m.Code))
		}
	}
	da := defScratch{
		in:   make([]regBits, longest),
		seen: make([]bool, longest),
		work: make([]int, 0, longest),
	}
	for id, m := range a.Methods {
		if m == nil {
			return fmt.Errorf("dex: method table slot %d is nil", id)
		}
		name := m.FullName()
		if m.ID != MethodID(id) {
			return fmt.Errorf("dex: %s: ID %d does not match table slot %d", name, m.ID, id)
		}
		if _, dup := seen[name]; dup {
			return fmt.Errorf("dex: duplicate method %s", name)
		}
		seen[name] = struct{}{}
		if err := a.validateMethod(m, name, &da); err != nil {
			return err
		}
	}
	return nil
}

func (a *App) validateMethod(m *Method, name string, da *defScratch) error {
	fail := func(pc int, format string, args ...any) error {
		return fmt.Errorf("dex: %s@%d: %s", name, pc, fmt.Sprintf(format, args...))
	}
	if m.NumRegs < m.NumIns {
		return fmt.Errorf("dex: %s: NumRegs %d < NumIns %d", name, m.NumRegs, m.NumIns)
	}
	if m.NumRegs > 256 {
		return fmt.Errorf("dex: %s: NumRegs %d > 256", name, m.NumRegs)
	}
	if m.Native {
		if len(m.Code) != 0 {
			return fmt.Errorf("dex: %s: native method has bytecode", name)
		}
		return nil
	}
	if len(m.Code) == 0 {
		return fmt.Errorf("dex: %s: empty body", name)
	}
	inRange := func(t int32) bool { return t >= 0 && int(t) < len(m.Code) }
	for pc := range m.Code {
		in := &m.Code[pc]
		if in.Op >= opcodeMax {
			return fail(pc, "bad opcode %d", in.Op)
		}
		regs, n := insnRegs(in)
		for _, r := range regs[:n] {
			if int(r) >= m.NumRegs {
				return fail(pc, "register v%d out of range (NumRegs=%d)", r, m.NumRegs)
			}
		}
		switch in.Op {
		case OpConstPool:
			if in.Lit < 0 || int(in.Lit) >= len(m.Pool) {
				return fail(pc, "pool index %d out of range (pool size %d)", in.Lit, len(m.Pool))
			}
		case OpInvoke:
			if int(in.Method) >= len(a.Methods) {
				return fail(pc, "invoke target m%d out of range", in.Method)
			}
		case OpInvokeNative:
			if in.Native >= nativeFuncMax {
				return fail(pc, "bad native function %d", in.Native)
			}
		case OpPackedSwitch:
			if len(in.Targets) == 0 {
				return fail(pc, "packed-switch with no targets")
			}
			for _, t := range in.Targets {
				if !inRange(t) {
					return fail(pc, "branch target %d out of range", t)
				}
			}
		}
		if in.Op.IsBranch() && in.Op != OpPackedSwitch && !inRange(in.Target) {
			return fail(pc, "branch target %d out of range", in.Target)
		}
	}
	last := m.Code[len(m.Code)-1].Op
	if !last.IsTerminal() {
		return fmt.Errorf("dex: %s: body does not end in a terminal instruction (%s)", name, last)
	}
	return da.check(m, name)
}

// regBits is a bitset over the 256 virtual registers.
type regBits [4]uint64

func (s *regBits) has(r uint8) bool { return s[r>>6]&(1<<(r&63)) != 0 }
func (s *regBits) add(r uint8)      { s[r>>6] |= 1 << (r & 63) }

func (s *regBits) intersect(o *regBits) (changed bool) {
	for i := range s {
		n := s[i] & o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

// defScratch is the definite-assignment check's working state: the
// registers assigned on entry to each instruction, whether the
// instruction has been reached, and the worklist. Validate keeps one and
// reuses it across methods.
type defScratch struct {
	in   []regBits
	seen []bool
	work []int
}

// check enforces the dex verifier's rule that no register is read before
// it is written on any path. The generated binary spills virtual
// registers to uninitialized stack slots, so this rule is what makes
// interpreter semantics (zero registers) and binary semantics (stale
// stack memory) agree. Branch targets must already be in range, and the
// scratch must hold len(m.Code) instructions.
func (s *defScratch) check(m *Method, name string) error {
	n := len(m.Code)
	s.in, s.seen = s.in[:n], s.seen[:n]
	clear(s.seen)
	var entry regBits
	for i := 0; i < m.NumIns; i++ {
		entry.add(uint8(m.NumRegs - m.NumIns + i))
	}
	s.in[0] = entry
	s.seen[0] = true
	s.work = append(s.work[:0], 0)
	for len(s.work) > 0 {
		pc := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		insn := &m.Code[pc]
		defs := s.in[pc]
		uses, nu := insnUses(insn)
		for _, u := range uses[:nu] {
			if !defs.has(u) {
				return fmt.Errorf("dex: %s@%d: register v%d may be used before assignment", name, pc, u)
			}
		}
		if d, ok := insnDef(insn); ok {
			defs.add(d)
		}
		switch {
		case insn.Op == OpPackedSwitch:
			for _, t := range insn.Targets {
				s.propagate(int(t), &defs)
			}
			s.propagate(pc+1, &defs)
		case insn.Op == OpGoto:
			s.propagate(int(insn.Target), &defs)
		case insn.Op.IsBranch():
			s.propagate(int(insn.Target), &defs)
			s.propagate(pc+1, &defs)
		case insn.Op.IsTerminal():
		default:
			s.propagate(pc+1, &defs)
		}
	}
	return nil
}

// propagate merges the registers assigned on one edge into instruction
// to's entry state, queueing to when that state is new or shrank.
func (s *defScratch) propagate(to int, defs *regBits) {
	if to >= len(s.in) {
		return
	}
	if !s.seen[to] {
		s.seen[to] = true
		s.in[to] = *defs
		s.work = append(s.work, to)
		return
	}
	if s.in[to].intersect(defs) {
		s.work = append(s.work, to)
	}
}

// insnDef returns the register an instruction writes, if any.
func insnDef(in *Insn) (uint8, bool) {
	switch in.Op {
	case OpConst, OpConstPool, OpNewInstance, OpMove, OpAddLit, OpIGet,
		OpNewArray, OpArrayLen, OpAdd, OpSub, OpAnd, OpOr, OpXor,
		OpMul, OpShl, OpShr, OpAGet, OpInvoke, OpInvokeNative:
		return in.A, true
	}
	return 0, false
}

// insnUses returns the registers an instruction reads, in regs[:n].
func insnUses(in *Insn) (regs [3]uint8, n int) {
	switch in.Op {
	case OpMove, OpAddLit, OpIGet, OpNewArray, OpArrayLen:
		return [3]uint8{in.B}, 1
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpShl, OpShr, OpAGet,
		OpInvoke, OpInvokeNative:
		return [3]uint8{in.B, in.C}, 2
	case OpIfEq, OpIfNe, OpIfLt, OpIfGe, OpIPut:
		return [3]uint8{in.A, in.B}, 2
	case OpIfEqz, OpIfNez, OpReturn, OpPackedSwitch:
		return [3]uint8{in.A}, 1
	case OpAPut:
		return [3]uint8{in.A, in.B, in.C}, 3
	}
	return regs, 0
}

// insnRegs returns the register operands an instruction actually uses, in
// regs[:n].
func insnRegs(in *Insn) (regs [3]uint8, n int) {
	switch in.Op {
	case OpConst, OpConstPool, OpNewInstance, OpIfEqz, OpIfNez, OpReturn,
		OpPackedSwitch:
		return [3]uint8{in.A}, 1
	case OpMove, OpAddLit, OpIfEq, OpIfNe, OpIfLt, OpIfGe,
		OpIGet, OpIPut, OpNewArray, OpArrayLen:
		return [3]uint8{in.A, in.B}, 2
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpMul, OpShl, OpShr,
		OpAGet, OpAPut, OpInvoke, OpInvokeNative:
		return [3]uint8{in.A, in.B, in.C}, 3
	}
	return regs, 0
}

// Stats summarizes an app for reporting.
type Stats struct {
	Files   int
	Classes int
	Methods int
	Native  int
	Insns   int
}

// CollectStats walks the app and counts its parts.
func (a *App) CollectStats() Stats {
	s := Stats{Files: len(a.Files), Methods: len(a.Methods)}
	for _, f := range a.Files {
		s.Classes += len(f.Classes)
	}
	for _, m := range a.Methods {
		if m.Native {
			s.Native++
		}
		s.Insns += len(m.Code)
	}
	return s
}
