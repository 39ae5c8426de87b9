package analysis

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/a64"
	"repro/internal/codegen"
	"repro/internal/oat"
)

// nestedLoopImage builds a one-method image whose body is depth nested
// loops (depth at most 19). The prologue saves only x29/x30. Loop i's
// latch clobbers a distinct register with movz (x19 at the outermost
// latch, caller-saved x0..x17 further in) and branches back to its head
// with cbnz; the innermost head leaves through cbz to the method's only
// ldp; ret, and falling out of the outermost latch ends in brk. The dirty
// x19 reaches the ret only after the fixpoint has swept the inner loops
// again for each outer latch, so block visits grow faster than the block
// count.
func nestedLoopImage(t *testing.T, depth int) *oat.Image {
	t.Helper()
	var a a64.Asm
	heads := make([]a64.Label, depth)
	for i := range heads {
		heads[i] = a.NewLabel()
	}
	exit := a.NewLabel()
	a.Inst(a64.Inst{Op: a64.OpStp, Sf: true, Rd: a64.FP, Rt2: a64.LR, Rn: 31, Imm: -16, Index: a64.IndexPre})
	for i := 0; i < depth-1; i++ {
		a.Bind(heads[i])
		a.Inst(a64.Inst{Op: a64.OpNop})
	}
	a.Bind(heads[depth-1])
	var terms []int
	terms = append(terms, a.InstTo(a64.Inst{Op: a64.OpCbz, Sf: true, Rd: 0}, exit))
	for i := depth - 1; i >= 0; i-- {
		reg := a64.Reg(i - 1) // x0, x1, ... for the inner latches
		if i == 0 {
			reg = 19
		}
		a.Inst(a64.Inst{Op: a64.OpMovz, Sf: true, Rd: reg, Imm: 1})
		terms = append(terms, a.InstTo(a64.Inst{Op: a64.OpCbnz, Sf: true, Rd: 0}, heads[i]))
	}
	terms = append(terms, a.Inst(a64.Inst{Op: a64.OpBrk}))
	a.Bind(exit)
	a.Inst(a64.Inst{Op: a64.OpLdp, Sf: true, Rd: a64.FP, Rt2: a64.LR, Rn: 31, Imm: 16, Index: a64.IndexPost})
	terms = append(terms, a.Inst(a64.Inst{Op: a64.OpRet, Rn: a64.LR}))
	prog, err := a.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return &oat.Image{
		Text: prog.Words,
		Methods: []oat.MethodRecord{{
			Size: prog.Size(),
			Meta: codegen.Meta{PCRel: prog.PCRel, Terminators: terms},
		}},
	}
}

// TestNestedLoopsConverge is the regression test for the dataflow step
// bound. The old bound (4n+64 block visits) cut the fixpoint off at
// nesting 15 before the dirty x19 reached the ret, so the image analyzed
// with no finding at all; the lattice-height bound lets it converge at
// every depth and report the unrestored callee-saved register.
func TestNestedLoopsConverge(t *testing.T) {
	for _, depth := range []int{1, 12, 15, 19} {
		t.Run(fmt.Sprint(depth), func(t *testing.T) {
			img := nestedLoopImage(t, depth)
			rep := Analyze(img)
			retOff := img.Methods[0].Size - a64.WordSize
			var got []string
			ok := len(rep.Findings) > 0
			for _, f := range rep.Findings {
				got = append(got, f.String())
				if f.Severity != SevError || f.Rule != RuleCalleeSaved || f.Off != retOff ||
					!strings.Contains(f.Msg, " x19 ") {
					ok = false
				}
			}
			if !ok {
				t.Errorf("want only the callee-saved x19 error at the ret (+%#x), got %q", retOff, got)
			}
		})
	}
}

// TestAbsState pins the frame-slot semantics of the abstract state: what
// a store records or kills, what a load restores, and how a merge
// intersects slots.
func TestAbsState(t *testing.T) {
	var mc methodCtx // the frame instructions below never touch the method context
	exec := func(insts ...a64.Inst) func(*absState) {
		return func(s *absState) {
			for _, inst := range insts {
				mc.transfer(s, 0, inst)
			}
		}
	}
	stp := func(r1, r2 a64.Reg, imm int64) a64.Inst {
		return a64.Inst{Op: a64.OpStp, Sf: true, Rd: r1, Rt2: r2, Rn: 31, Imm: imm, Index: a64.IndexOffset}
	}
	ldp := func(r1, r2 a64.Reg, imm int64) a64.Inst {
		return a64.Inst{Op: a64.OpLdp, Sf: true, Rd: r1, Rt2: r2, Rn: 31, Imm: imm, Index: a64.IndexOffset}
	}
	str := func(r a64.Reg, imm int64, sf bool) a64.Inst {
		return a64.Inst{Op: a64.OpStrImm, Sf: sf, Rd: r, Rn: 31, Imm: imm}
	}
	movz := func(r a64.Reg) a64.Inst { return a64.Inst{Op: a64.OpMovz, Sf: true, Rd: r} }
	frame := absState{sp: -32, slots: []slot{{-32, 29}, {-24, 30}, {-16, 19}, {-8, 20}}}

	ops := []struct {
		name string
		from absState
		run  func(*absState)
		want absState
	}{
		{"prologue records clean saves in offset order",
			absState{sp: -32}, exec(stp(19, 20, 16), stp(29, 30, 0)), frame},
		{"store overwrites a slot",
			frame, exec(str(21, 16, true)),
			absState{sp: -32, slots: []slot{{-32, 29}, {-24, 30}, {-16, 21}, {-8, 20}}}},
		{"32-bit str kills a slot",
			frame, exec(str(19, 16, false)),
			absState{sp: -32, slots: []slot{{-32, 29}, {-24, 30}, {-8, 20}}}},
		{"dirty register stored over a saved slot kills it",
			frame, exec(movz(21), str(21, 24, true)),
			absState{sp: -32, dirty: 1 << 21, slots: []slot{{-32, 29}, {-24, 30}, {-16, 19}}}},
		{"caller-saved register stored over a saved slot kills it",
			frame, exec(str(9, 0, true)),
			absState{sp: -32, slots: []slot{{-24, 30}, {-16, 19}, {-8, 20}}}},
		{"restore from the matching register cleans it",
			frame, exec(movz(19), movz(20), ldp(19, 20, 16)), frame},
		{"restore from a mismatched register leaves both dirty",
			frame, exec(movz(19), ldp(20, 19, 16)),
			absState{sp: -32, dirty: 1<<19 | 1<<20, slots: frame.slots}},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			var s absState
			s.copyFrom(&tc.from)
			tc.run(&s)
			if fmt.Sprint(s) != fmt.Sprint(tc.want) {
				t.Errorf("got %+v, want %+v", s, tc.want)
			}
		})
	}

	merges := []struct {
		name          string
		src, dst      absState
		want          absState
		changed, conf bool
	}{
		{"merge intersects slots by offset and register",
			absState{slots: []slot{{-32, 29}, {-16, 19}, {-8, 21}}},
			absState{slots: []slot{{-24, 30}, {-16, 19}, {-8, 20}}},
			absState{slots: []slot{{-16, 19}}}, true, false},
		{"superset into subset: unchanged",
			frame, absState{sp: -32, slots: []slot{{-24, 30}, {-8, 20}}},
			absState{sp: -32, slots: []slot{{-24, 30}, {-8, 20}}}, false, false},
		{"subset into superset: slots drop",
			absState{sp: -32, slots: []slot{{-24, 30}, {-8, 20}}}, frame,
			absState{sp: -32, slots: []slot{{-24, 30}, {-8, 20}}}, true, false},
		{"identical states: unchanged",
			frame, frame, frame, false, false},
		{"dirty bits union",
			absState{sp: -32, dirty: 1 << 3, slots: frame.slots}, frame,
			absState{sp: -32, dirty: 1 << 3, slots: frame.slots}, true, false},
		{"sp disagreement poisons sp and conflicts",
			absState{sp: -16}, absState{sp: -32}, absState{sp: spUnknown}, true, true},
		{"unknown sp poisons without conflict",
			absState{sp: spUnknown}, absState{sp: -32}, absState{sp: spUnknown}, true, false},
		{"known sp into unknown: unchanged",
			absState{sp: -32}, absState{sp: spUnknown}, absState{sp: spUnknown}, false, false},
	}
	for _, tc := range merges {
		t.Run(tc.name, func(t *testing.T) {
			var dst absState
			dst.copyFrom(&tc.dst)
			changed, conf := tc.src.mergeInto(&dst)
			if fmt.Sprint(dst) != fmt.Sprint(tc.want) || changed != tc.changed || conf != tc.conf {
				t.Errorf("got %+v changed=%v conflict=%v, want %+v changed=%v conflict=%v",
					dst, changed, conf, tc.want, tc.changed, tc.conf)
			}
		})
	}
}
