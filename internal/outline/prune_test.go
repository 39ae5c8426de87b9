package outline

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/suffixtree"
	"repro/internal/workload"
)

// wordSeq is a Sequence over fixed words and mask.
type wordSeq struct {
	words []uint32
	mask  []bool
}

func (s wordSeq) Words() []uint32 { return s.words }
func (s wordSeq) Mask() []bool    { return s.mask }

// rankedCand is one detected candidate in detector-independent terms: its
// occurrences mapped back through the position map, in sequence order.
type rankedCand struct {
	Length, Count int
	Occurrences   []position
}

func (c rankedCand) String() string {
	return fmt.Sprintf("{length %d count %d occurrences %v}", c.Length, c.Count, c.Occurrences[:min(len(c.Occurrences), 4)])
}

// detection is what selection reads from one detection pass: the
// candidates in rank order, the same in tree-node order, and the number of
// symbols the detector was given.
type detection struct {
	ranked, byNode []rankedCand
	symbols        int
}

// detect runs outlineGroup's detection route (detectGroup, then the
// ranking) over the full or the pruned sequence.
func detect(t *testing.T, units []Sequence, group []int, opts Options, prune bool) detection {
	t.Helper()
	pruneSequences = prune
	defer func() { pruneSequences = true }()
	var st Stats
	pos, tree, reps, err := detectGroup(context.Background(), units, group, opts.withDefaults(), &st)
	if err != nil {
		t.Fatal(err)
	}
	mapped := func(r suffixtree.Repeat) rankedCand {
		occs := tree.Occurrences(r.Node)
		slices.Sort(occs)
		rc := rankedCand{Length: r.Length, Count: r.Count}
		for _, o := range occs {
			rc.Occurrences = append(rc.Occurrences, pos[o])
		}
		return rc
	}
	d := detection{symbols: st.SequenceSymbols}
	rankCandidates(reps)
	for _, r := range reps {
		d.ranked = append(d.ranked, mapped(r))
	}
	slices.SortFunc(reps, func(a, b suffixtree.Repeat) int { return cmp.Compare(a.Node, b.Node) })
	for _, r := range reps {
		d.byNode = append(d.byNode, mapped(r))
	}
	return d
}

// samePruned requires detection over the pruned sequence to report
// exactly what detection over the full sequence reports, in the same rank
// and node order, and returns the two symbol counts.
func samePruned(t *testing.T, name string, units []Sequence, group []int, opts Options) (full, pruned int) {
	t.Helper()
	want := detect(t, units, group, opts, false)
	got := detect(t, units, group, opts, true)
	for _, c := range []struct {
		what      string
		got, want []rankedCand
	}{{"ranked", got.ranked, want.ranked}, {"node", got.byNode, want.byNode}} {
		if !reflect.DeepEqual(c.got, c.want) {
			for i := range min(len(c.got), len(c.want)) {
				if !reflect.DeepEqual(c.got[i], c.want[i]) {
					t.Fatalf("%s: %s candidate %d of %d/%d: pruned %v, full %v",
						name, c.what, i, len(c.got), len(c.want), c.got[i], c.want[i])
				}
			}
			t.Fatalf("%s: %s: pruned has %d candidates, full %d", name, c.what, len(c.got), len(c.want))
		}
	}
	return want.symbols, got.symbols
}

// randomUnits generates units over a small alphabet, built from runs of
// exactly minLen, minLen-1 and random lengths between separators, with
// some words drawn fresh (seen once) and some units copied whole, so that
// fresh words seen exactly twice take part in repeats.
func randomUnits(r *rand.Rand, minLen int) []Sequence {
	alphabet := 2 + r.Intn(3)
	fresh := uint32(1 << 20)
	var units []Sequence
	for u := 3 + r.Intn(8); u > 0; u-- {
		if len(units) > 0 && r.Intn(3) == 0 {
			units = append(units, units[r.Intn(len(units))])
			continue
		}
		var s wordSeq
		for runs := 1 + r.Intn(5); runs > 0; runs-- {
			n := r.Intn(2*minLen + 2)
			switch r.Intn(3) {
			case 0:
				n = minLen
			case 1:
				n = minLen - 1
			}
			for ; n > 0; n-- {
				w := uint32(r.Intn(alphabet))
				if r.Intn(8) == 0 {
					w, fresh = fresh, fresh+1
				}
				s.words = append(s.words, w)
				s.mask = append(s.mask, false)
			}
			// A separator word, sometimes one of the alphabet's.
			s.words = append(s.words, uint32(r.Intn(alphabet+1)))
			s.mask = append(s.mask, true)
		}
		units = append(units, s)
	}
	return units
}

// TestPrunedDetectionMatchesFull holds the sequence pruning to its claim:
// over random sequences (small alphabets, runs at and just under the
// minimum length, words seen once and exactly twice) at minimum lengths 1
// to 5, detection over the pruned sequence reports the candidates of the
// full sequence: the same lengths, counts and occurrences mapped back to
// unit positions, in the same rank and node order.
func TestPrunedDetectionMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var full, pruned int
	for trial := 0; trial < 60; trial++ {
		for minLen := 1; minLen <= 5; minLen++ {
			units := randomUnits(r, minLen)
			group := make([]int, len(units))
			for i := range group {
				group[i] = i
			}
			name := fmt.Sprintf("trial %d minLen %d", trial, minLen)
			f, p := samePruned(t, name, units, group, Options{MinLength: minLen})
			full += f
			pruned += p
		}
	}
	if pruned >= full {
		t.Errorf("pruning kept %d of %d symbols", pruned, full)
	}
}

// TestPrunedLadderMatchesFull runs the same comparison over the six ladder
// apps under CTO, as the outliner sees them, and requires the §2.2
// redundancy study (Analyze, both masks) to be unchanged by the pruning.
func TestPrunedLadderMatchesFull(t *testing.T) {
	scale := 0.03
	if testing.Short() {
		scale = 0.01
	}
	for _, prof := range workload.Apps(scale) {
		app, _, err := workload.Generate(prof)
		if err != nil {
			t.Fatal(err)
		}
		cms := compile(t, app, true)
		var units []Sequence
		var group []int
		for i, cm := range cms {
			units = append(units, methodSeq{cm: cm})
			if !cm.Meta.IsNative && !cm.Meta.HasIndirectJump {
				group = append(group, i)
			}
		}
		full, pruned := samePruned(t, prof.Name, units, group, Options{})
		if pruned >= full {
			t.Errorf("%s: pruning kept %d of %d symbols", prof.Name, pruned, full)
		}
		for _, bounded := range []bool{false, true} {
			got := Analyze(cms, bounded)
			pruneSequences = false
			want := Analyze(cms, bounded)
			pruneSequences = true
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Analyze(bounded=%v) over the pruned sequence differs from the full one", prof.Name, bounded)
			}
		}
	}
}
