package hgraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dex"
)

func TestDominators(t *testing.T) {
	// Diamond: B0 -> {B1, B2} -> B3.
	m := method("dom", 2, 1, []dex.Insn{
		{Op: dex.OpIfEqz, A: 1, Target: 3},
		{Op: dex.OpConst, A: 0, Lit: 1},
		{Op: dex.OpGoto, Target: 4},
		{Op: dex.OpConst, A: 0, Lit: 2},
		{Op: dex.OpReturn, A: 0},
	})
	g, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	idom := Dominators(g)
	if idom[0] != 0 || idom[1] != 0 || idom[2] != 0 || idom[3] != 0 {
		t.Errorf("idom = %v, want all dominated directly by entry", idom)
	}
	if !dominates(idom, 0, 3) || dominates(idom, 1, 3) || dominates(idom, 2, 3) {
		t.Error("dominance queries wrong on diamond")
	}
}

func TestNaturalLoopDetection(t *testing.T) {
	// v1 counts down; loop body is B1.
	m := method("loop", 3, 1, []dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 0},
		{Op: dex.OpAddLit, A: 0, B: 0, Lit: 1},
		{Op: dex.OpAddLit, A: 2, B: 2, Lit: -1},
		{Op: dex.OpIfNez, A: 2, Target: 1},
		{Op: dex.OpReturn, A: 0},
	})
	g, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	idom := Dominators(g)
	loops := naturalLoops(g, idom)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	if !loops[0].blocks[loops[0].header] {
		t.Error("header not in its own loop")
	}
}

func TestLICMHoistsInvariant(t *testing.T) {
	// for (v6 = n; v6 != 0; v6--) { v2 = v4 + v5; v0 = v0 + v2 }
	// The v2 computation is invariant; the v0 accumulation is not.
	m := method("licm", 7, 3, []dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 0},
		{Op: dex.OpMove, A: 1, B: 6},      // live counter copy
		{Op: dex.OpAdd, A: 2, B: 4, C: 5}, // invariant
		{Op: dex.OpAdd, A: 0, B: 0, C: 2},
		{Op: dex.OpAddLit, A: 1, B: 1, Lit: -1},
		{Op: dex.OpIfNez, A: 1, Target: 2},
		{Op: dex.OpReturn, A: 0},
	})
	g, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(g)
	// The invariant add must no longer be in a loop block: find the loop
	// and check its body.
	idom := Dominators(g)
	loops := naturalLoops(g, idom)
	if len(loops) != 1 {
		t.Fatalf("loops after optimize = %d:\n%s", len(loops), g)
	}
	for b := range loops[0].blocks {
		for _, in := range g.Blocks[b].Insns {
			if in.Op == dex.OpAdd && in.B == 4 && in.C == 5 {
				t.Errorf("invariant add still inside loop:\n%s", g)
			}
		}
	}
	// Semantics preserved for several trip counts.
	flat, err := FlattenInto(g, m)
	if err != nil {
		t.Fatal(err)
	}
	app := newApp(t, flat)
	orig := newApp(t, m)
	for _, args := range [][]int64{{3, 4}, {0, 0}} {
		// args fill v5, v6 (the two trailing registers of three ins... use
		// interp directly with 3 ins: v4, v5, v6).
		ipO := &Interp{App: orig}
		want, err := ipO.Run(0, args)
		if err != nil {
			t.Fatal(err)
		}
		ipN := &Interp{App: app}
		got, err := ipN.Run(0, args)
		if err != nil {
			t.Fatal(err)
		}
		if want.Ret != got.Ret {
			t.Errorf("args %v: %d != %d", args, got.Ret, want.Ret)
		}
	}
}

func TestLICMDoesNotHoistVariant(t *testing.T) {
	// The v1 = v3+v3 add depends on the loop counter v3 and feeds the
	// accumulator: it must stay inside the loop.
	m := method("novar", 4, 1, []dex.Insn{
		{Op: dex.OpConst, A: 0, Lit: 0},
		{Op: dex.OpAdd, A: 1, B: 3, C: 3},
		{Op: dex.OpAdd, A: 0, B: 0, C: 1},
		{Op: dex.OpAddLit, A: 3, B: 3, Lit: -1},
		{Op: dex.OpIfNez, A: 3, Target: 1},
		{Op: dex.OpReturn, A: 0},
	})
	g, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(g)
	idom := Dominators(g)
	loops := naturalLoops(g, idom)
	if len(loops) != 1 {
		t.Fatalf("loops = %d:\n%s", len(loops), g)
	}
	found := false
	for b := range loops[0].blocks {
		for _, in := range g.Blocks[b].Insns {
			if in.Op == dex.OpAdd && (in.B == 3 || in.C == 3) {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("variant computation was hoisted:\n%s", g)
	}
	// And it must still compute sum(2i for i in n..1) = n(n+1).
	flat, err := FlattenInto(g, m)
	if err != nil {
		t.Fatal(err)
	}
	app := newApp(t, flat)
	if got := run(t, app, 0, 4).Ret; got != 20 {
		t.Errorf("novar(4) = %d, want 20", got)
	}
}

// randLoopMethod extends the random generator with bounded counted loops,
// exercising LICM and the dominator machinery.
func randLoopMethod(r *rand.Rand) *dex.Method {
	m := randMethod(r)
	code := m.Code[:len(m.Code)-1] // drop the trailing return
	retA := m.Code[len(m.Code)-1].A

	// Append up to two self-contained counted loops before the return. The
	// mask register v5 doubles as the loop counter: each loop initializes
	// it, and nothing after the loops (only the logging epilogue) reads the
	// mask, so definite assignment and semantics stay intact.
	nLoops := r.Intn(3)
	for l := 0; l < nLoops; l++ {
		iters := 1 + r.Intn(6)
		code = append(code, dex.Insn{Op: dex.OpConst, A: 5, Lit: int64(iters)})
		top := int32(len(code))
		body := 2 + r.Intn(5)
		for k := 0; k < body; k++ {
			switch r.Intn(4) {
			case 0:
				code = append(code, dex.Insn{Op: dex.OpConst, A: uint8(r.Intn(3)), Lit: int64(r.Intn(100))})
			case 1:
				ops := []dex.Opcode{dex.OpAdd, dex.OpSub, dex.OpXor}
				code = append(code, dex.Insn{Op: ops[r.Intn(3)], A: uint8(r.Intn(3)), B: uint8(r.Intn(3)), C: uint8(r.Intn(3))})
			case 2:
				code = append(code, dex.Insn{Op: dex.OpAddLit, A: uint8(r.Intn(3)), B: uint8(r.Intn(3)), Lit: int64(r.Intn(9))})
			case 3:
				code = append(code, dex.Insn{Op: dex.OpIGet, A: uint8(r.Intn(3)), B: 4, Lit: int64(r.Intn(8))})
			}
		}
		code = append(code,
			dex.Insn{Op: dex.OpAddLit, A: 5, B: 5, Lit: -1},
			dex.Insn{Op: dex.OpIfNez, A: 5, Target: top},
		)
	}
	code = append(code, dex.Insn{Op: dex.OpReturn, A: retA})
	m.Code = code
	return m
}

// TestOptimizeWithLoopsPreservesSemantics is the loop-bearing differential
// property test covering LICM.
func TestOptimizeWithLoopsPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		m := randLoopMethod(r)
		orig := newApp(t, m)
		optApp, _ := optimizeMethod(t, m)
		for _, args := range [][]int64{{0, 0}, {2, -3}, {50, 7}} {
			ipO := &Interp{App: orig}
			want, err := ipO.Run(0, args)
			if err != nil {
				t.Fatal(err)
			}
			ipN := &Interp{App: optApp}
			got, err := ipN.Run(0, args)
			if err != nil {
				t.Fatal(err)
			}
			if want.Ret != got.Ret || want.Exc != got.Exc || !reflect.DeepEqual(want.Log, got.Log) {
				t.Fatalf("trial %d args %v: optimized loop code diverges\nwant ret=%d exc=%v\ngot  ret=%d exc=%v\noriginal: %v\noptimized: %v",
					trial, args, want.Ret, want.Exc, got.Ret, got.Exc, m.Code, optApp.Methods[0].Code)
			}
		}
	}
}

// TestLICMLeavesEntryLoopAlone: a loop headed by the entry block has no
// predecessor to route through a preheader, since the method is entered
// there from outside the graph. A hoisted instruction would land in a
// block nothing reaches and be deleted with it.
func TestLICMLeavesEntryLoopAlone(t *testing.T) {
	// do { v0 = v7 + 9; v6-- } while (v6 != 0); return v0
	m := method("entryloop", 8, 2, []dex.Insn{
		{Op: dex.OpAddLit, A: 0, B: 7, Lit: 9}, // invariant
		{Op: dex.OpAddLit, A: 6, B: 6, Lit: -1},
		{Op: dex.OpIfNez, A: 6, Target: 0},
		{Op: dex.OpReturn, A: 0},
	})
	app, _ := optimizeMethod(t, m)
	if got := run(t, app, 0, 3, 5).Ret; got != 14 {
		t.Errorf("entryloop(3, 5) = %d, want 14\noptimized: %v", got, app.Methods[0].Code)
	}
}
