package hgraph

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dex"
)

// optimizeFullRounds is the reference schedule Optimize must reproduce:
// every pass runs in every round, and every pass that reads liveness
// computes it afresh.
func optimizeFullRounds(g *Graph) {
	for round := 0; round < 4; round++ {
		changed, _ := foldAndPropagate(g)
		changed = eliminateDeadCode(g, ComputeLiveness(g)) || changed
		changed = removeUnreachable(g) || changed
		changed = coalesceBlocks(g) || changed
		changed = hoistInvariants(g, func() *Liveness { return ComputeLiveness(g) }) || changed
		changed = mergeReturns(g) || changed
		if !changed {
			break
		}
	}
}

// randBackwardMethod is randMethod with about half of its branch targets
// moved anywhere at or before the branch, and nops sprinkled in. The
// graphs are compared, never run, so the loops need not terminate.
func randBackwardMethod(r *rand.Rand) *dex.Method {
	m := randMethod(r)
	for pc := range m.Code {
		in := &m.Code[pc]
		switch {
		case in.Op == dex.OpPackedSwitch:
			for i := range in.Targets {
				if r.Intn(2) == 0 {
					in.Targets[i] = int32(r.Intn(pc + 1))
				}
			}
		case in.Op.IsBranch() && r.Intn(2) == 0:
			in.Target = int32(r.Intn(pc + 1))
		case in.Op == dex.OpConst && r.Intn(8) == 0:
			// A nop in place of a constant keeps every branch target valid.
			*in = dex.Insn{Op: dex.OpNopCode}
		}
	}
	return m
}

// unreportedCopyLoop is a loop that LICM can hoist from only after a
// change fold does not report. Round 1 folds the always-taken if-eqz,
// removes the dead arm and coalesces the header with pc 5, and LICM then
// finds nothing: add-lit v1 reads v0, which the loop defines twice. Round
// 2's fold propagates the copy in the merged header, rewriting add-lit v1,
// v0 to add-lit v1, v6, and reports no change; LICM, which ran clean on the
// graph before that rewrite, must run again to hoist it.
var unreportedCopyLoop = []dex.Insn{
	{Op: dex.OpConst, A: 2, Lit: 3},
	{Op: dex.OpMove, A: 0, B: 6}, // loop header
	{Op: dex.OpConst, A: 3, Lit: 0},
	{Op: dex.OpIfEqz, A: 3, Target: 5},
	{Op: dex.OpConst, A: 1, Lit: 7}, // dead arm
	{Op: dex.OpAddLit, A: 1, B: 0, Lit: 9},
	{Op: dex.OpIfEqz, A: 2, Target: 11},
	{Op: dex.OpAdd, A: 0, B: 0, C: 1},
	{Op: dex.OpInvokeNative, A: 4, Native: dex.NativeLogValue, B: 0},
	{Op: dex.OpAddLit, A: 2, B: 2, Lit: -1},
	{Op: dex.OpGoto, Target: 1},
	{Op: dex.OpReturn, A: 0},
}

// optimizeBoth builds m twice, runs the reference schedule on one graph
// and Optimize on the other, and fails unless the graphs are identical and
// Optimize returned the liveness of its graph.
func optimizeBoth(t *testing.T, label string, m *dex.Method) {
	t.Helper()
	want, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	optimizeFullRounds(want)
	lv := Optimize(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Optimize differs from the full-rounds schedule\ncode: %v\nwant:\n%v\ngot:\n%v", label, m.Code, want, got)
	}
	if !reflect.DeepEqual(lv, ComputeLiveness(got)) {
		t.Fatalf("%s: Optimize returned stale liveness\ncode: %v\ngraph:\n%v", label, m.Code, got)
	}
}

// TestOptimizeMatchesFullRounds: skipping passes that cannot change the
// graph and sharing liveness between passes leave every graph exactly as
// running every pass every round does.
func TestOptimizeMatchesFullRounds(t *testing.T) {
	optimizeBoth(t, "unreported copy", method("copy", 8, 2, unreportedCopyLoop))

	n := 100000
	if testing.Short() {
		n = 10000
	}
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < n; trial++ {
		optimizeBoth(t, "forward", randMethod(r))
		optimizeBoth(t, "backward", randBackwardMethod(r))
	}
}
