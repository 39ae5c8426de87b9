package suffixtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// sym converts a string to the symbol sequence used in tests; '$', '#'
// etc. participate like any other byte.
func sym(s string) []uint32 {
	out := make([]uint32, len(s))
	for i := range s {
		out[i] = uint32(s[i])
	}
	return out
}

// bruteOccurrences finds all occurrences of needle in hay.
func bruteOccurrences(hay, needle []uint32) []int {
	var occ []int
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for k := range needle {
			if hay[i+k] != needle[k] {
				continue outer
			}
		}
		occ = append(occ, i)
	}
	return occ
}

// TestBananaTree reproduces the paper's Figure 1 example.
func TestBananaTree(t *testing.T) {
	tr := Build(sym("banana$"))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 7 {
		t.Errorf("leaves = %d, want 7 (one per suffix)", tr.NumLeaves())
	}
	// Internal (non-leaf) nodes represent right-maximal repeats, exactly
	// the three non-leaf nodes in Figure 1: "a" x3, "ana" x2, "na" x2.
	// ("an" and "n" repeat too but are always followed by "a", so they
	// live on the edges into "ana"/"na" rather than at nodes.)
	found := map[string]int{}
	for _, r := range tr.Repeats(1, 2) {
		found[string(byteLabel(tr, r.Node))] = r.Count
	}
	want := map[string]int{"a": 3, "ana": 2, "na": 2}
	if !reflect.DeepEqual(found, want) {
		t.Errorf("repeats = %v, want %v", found, want)
	}
	// The rightmost example in §2.1.2: "na" occurs twice, at 2 and 4.
	for _, r := range tr.Repeats(2, 2) {
		if string(byteLabel(tr, r.Node)) == "na" {
			occ := tr.Occurrences(r.Node)
			sort.Ints(occ)
			if !reflect.DeepEqual(occ, []int{2, 4}) {
				t.Errorf("na occurrences = %v", occ)
			}
		}
	}
}

func byteLabel(tr *Tree, node int) []byte {
	lab := tr.Label(node)
	out := make([]byte, len(lab))
	for i, s := range lab {
		out[i] = byte(s)
	}
	return out
}

func TestMississippi(t *testing.T) {
	tr := Build(sym("mississippi$"))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 12 {
		t.Errorf("leaves = %d", tr.NumLeaves())
	}
	// "issi" repeats twice (positions 1 and 4).
	var got []int
	for _, r := range tr.Repeats(4, 2) {
		if string(byteLabel(tr, r.Node)) == "issi" {
			got = tr.Occurrences(r.Node)
			sort.Ints(got)
		}
	}
	if !reflect.DeepEqual(got, []int{1, 4}) {
		t.Errorf("issi occurrences = %v", got)
	}
}

// TestLeafCountEdgeCases covers the sequences too short to have an
// internal node: an empty sequence has no suffixes and so no leaves, and
// a one-symbol sequence has exactly one.
func TestLeafCountEdgeCases(t *testing.T) {
	for _, c := range []struct {
		name   string
		seq    []uint32
		leaves int
	}{
		{"nil", nil, 0},
		{"empty", []uint32{}, 0},
		{"one symbol", []uint32{7}, 1},
		{"two symbols", []uint32{7, 8}, 2},
	} {
		tr := Build(c.seq)
		if got := tr.NumLeaves(); got != c.leaves {
			t.Errorf("%s: leaves = %d, want %d", c.name, got, c.leaves)
		}
		if reps := tr.Repeats(1, 2); len(reps) != 0 {
			t.Errorf("%s: repeats = %v, want none", c.name, reps)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestDepthAndCountsMatchWalk checks the depths set at node creation and
// the leaf counts of the depth-ordered fold against a walk from the root:
// a node's depth is its parent's plus its edge length, and its leaf count
// is the sum over its children (one for a leaf). The walk also checks the
// links it follows: every child names its parent and its previous sibling
// back, and every leaf is reached exactly once.
func TestDepthAndCountsMatchWalk(t *testing.T) {
	for _, seq := range [][]uint32{sym("banana$"), sym("mississippi$"), random16(3000), outlinerShaped(3000, 4)} {
		tr := Build(seq)
		n := int32(len(seq))
		// depth, edge and count of a child reference, read the way the
		// tree's users derive them.
		depth := func(c int32) int32 {
			if c < 0 {
				return n - ^c
			}
			return tr.nodes[c].depth
		}
		edge := func(c int32) (int32, int32) {
			if c < 0 {
				return int32(tr.edgeStart(c)), n
			}
			return tr.nodes[c].start, tr.nodes[c].end
		}
		count := func(c int32) int32 {
			if c < 0 {
				return 1
			}
			return tr.nodes[c].leafCount
		}
		seen := make([]bool, len(tr.leaves))
		stack := []int32{root}
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if idx != root {
				p := tr.linksOf(idx).parent
				start, end := edge(idx)
				if want := depth(p) + end - start; depth(idx) != want {
					t.Fatalf("node %d: depth %d, want %d", idx, depth(idx), want)
				}
			}
			if idx < 0 {
				if seen[^idx] {
					t.Fatalf("leaf %d reached twice", ^idx)
				}
				seen[^idx] = true
				continue
			}
			sum, prev := int32(0), int32(0)
			for c := tr.nodes[idx].firstChild; c != 0; c = tr.linksOf(c).nextSibling {
				if l := tr.linksOf(c); l.parent != idx || l.prevSibling != prev {
					t.Fatalf("node %d: child %d links back to parent %d, previous sibling %d; want %d, %d",
						idx, c, l.parent, l.prevSibling, idx, prev)
				}
				sum += count(c)
				stack = append(stack, c)
				prev = c
			}
			if count(idx) != sum {
				t.Fatalf("node %d: count %d, children sum %d", idx, count(idx), sum)
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("leaf %d unreachable from the root", i)
			}
		}
		if len(seen) != len(seq) {
			t.Fatalf("%d leaves for %d suffixes", len(seen), len(seq))
		}
	}
}

// TestSweepMatchesOccurrences requires every Sweep list to equal the
// sorted Occurrences walk of its repeat, over all repeats, over every
// other repeat (so unlisted ancestors are skipped), and over none.
func TestSweepMatchesOccurrences(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	inputs := [][]uint32{sym("banana$"), sym("mississippi$"), random16(5000), outlinerShaped(20000, 6)}
	for trial := 0; trial < 20; trial++ {
		seq := make([]uint32, 20+r.Intn(300))
		alpha := 1 + r.Intn(4)
		for i := range seq {
			seq[i] = uint32(r.Intn(alpha))
		}
		inputs = append(inputs, append(seq, 0xFFFFFFFF))
	}
	for in, seq := range inputs {
		tr := Build(seq)
		all := tr.Repeats(1, 2)
		var odd []Repeat
		for i := 1; i < len(all); i += 2 {
			odd = append(odd, all[i])
		}
		for _, reps := range [][]Repeat{all, odd, nil} {
			lists := tr.Sweep(reps)
			if len(lists) != len(reps) {
				t.Fatalf("input %d: %d lists for %d repeats", in, len(lists), len(reps))
			}
			for k, rep := range reps {
				want := tr.Occurrences(rep.Node)
				sort.Ints(want)
				got := make([]int, len(lists[k]))
				for i, o := range lists[k] {
					got[i] = int(o)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("input %d: repeat %v: sweep %v, occurrences %v", in, rep, got, want)
				}
			}
		}
	}
}

// TestOccurrencesMatchBruteForce cross-checks every repeat's occurrence
// list against a naive scanner on random sequences.
func TestOccurrencesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.Intn(120)
		alpha := 2 + r.Intn(5)
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = uint32(r.Intn(alpha))
		}
		seq = append(seq, 0xFFFFFFFF) // unique terminator
		tr := Build(seq)
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tr.NumLeaves() != len(seq) {
			t.Fatalf("trial %d: leaves = %d, want %d", trial, tr.NumLeaves(), len(seq))
		}
		for _, rep := range tr.Repeats(1, 2) {
			label := tr.Label(rep.Node)
			want := bruteOccurrences(seq, label)
			got := tr.Occurrences(rep.Node)
			sort.Ints(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: occurrences of %v = %v, want %v", trial, label, got, want)
			}
			if rep.Count != len(want) {
				t.Fatalf("trial %d: count of %v = %d, want %d", trial, label, rep.Count, len(want))
			}
		}
	}
}

// TestLongestRepeatMatchesBruteForce compares the longest repeated
// substring length against brute force.
func TestLongestRepeatMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(80)
		seq := make([]uint32, n)
		for i := range seq {
			seq[i] = uint32(r.Intn(3))
		}
		seq = append(seq, 0xFFFFFFFF)

		brute := 0
		for length := 1; length < len(seq); length++ {
			found := false
			for i := 0; i+length <= len(seq) && !found; i++ {
				if len(bruteOccurrences(seq, seq[i:i+length])) >= 2 {
					found = true
				}
			}
			if found {
				brute = length
			} else {
				break
			}
		}
		tree := 0
		tr := Build(seq)
		for _, rep := range tr.Repeats(1, 2) {
			if rep.Length > tree {
				tree = rep.Length
			}
		}
		if tree != brute {
			t.Fatalf("trial %d: longest repeat %d, brute force %d", trial, tree, brute)
		}
	}
}

// TestSeparatorsConfineRepeats: symbols unique to one position can never
// appear inside a repeat, the property §3.3.2 relies on.
func TestSeparatorsConfineRepeats(t *testing.T) {
	// Two identical blocks joined by unique separators.
	var seq []uint32
	block := []uint32{7, 8, 9, 7, 8, 9}
	sep := uint32(1 << 20)
	for i := 0; i < 3; i++ {
		seq = append(seq, block...)
		seq = append(seq, sep+uint32(i))
	}
	tr := Build(seq)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, rep := range tr.Repeats(1, 2) {
		for _, s := range tr.Label(rep.Node) {
			if s >= sep {
				t.Fatalf("separator %#x inside repeat %v", s, tr.Label(rep.Node))
			}
		}
	}
}

func TestBenefitModel(t *testing.T) {
	// Figure 2 with the Table 2 example: a 2-instruction sequence repeated
	// twice saves nothing (2*2=4 vs 2+1+2=5 → benefit -1).
	if got := Benefit(2, 2); got != -1 {
		t.Errorf("Benefit(2,2) = %d, want -1", got)
	}
	// A 2-instruction sequence repeated 4 times: 8 vs 7 → benefit 1.
	if got := Benefit(2, 4); got != 1 {
		t.Errorf("Benefit(2,4) = %d, want 1", got)
	}
	// The paper's hottest pattern: length 2 repeated 1006k times.
	if got := Benefit(2, 1006000); got != 2012000-1006003 {
		t.Errorf("Benefit(2,1006000) = %d", got)
	}
	if r := ReductionRatio(10, 100); r <= 0.88 || r >= 0.90 {
		t.Errorf("ReductionRatio(10,100) = %f", r)
	}
	if ReductionRatio(0, 0) != 0 {
		t.Error("ReductionRatio(0,0) != 0")
	}
}

// TestBenefitProperties: quick-check the model's monotonicity.
func TestBenefitProperties(t *testing.T) {
	f := func(l8, c8 uint8) bool {
		l, c := int(l8%64)+1, int(c8%64)+2
		// Monotone in both arguments.
		return Benefit(l+1, c) >= Benefit(l, c) && Benefit(l, c+1) >= Benefit(l, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTreeScalesLinearly bounds the node count (<= 2n+2) on a random
// 16-symbol sequence and on an outliner-shaped one. Outside -short it also
// times both shapes at the same length: the outliner-shaped root holds one
// child per unique separator, tens of thousands here, against 16, so a
// build that walks a sibling list on every split (quadratic in the list
// length) is several times slower on it, while a linear build is not.
// Comparing equal lengths keeps cache effects out of the ratio.
func TestTreeScalesLinearly(t *testing.T) {
	const n = 200000
	random, outliner := random16(n-1), outlinerShaped(n, 1)
	for _, c := range []struct {
		name string
		seq  []uint32
	}{
		{"random16", random16(20000)},
		{"random16", random},
		{"outliner", outliner},
	} {
		tr := Build(c.seq)
		if tr.NumNodes() > 2*len(c.seq)+2 {
			t.Errorf("%s: nodes = %d for n = %d", c.name, tr.NumNodes(), len(c.seq))
		}
		if tr.NumLeaves() != len(c.seq) {
			t.Errorf("%s: leaves = %d, want %d", c.name, tr.NumLeaves(), len(c.seq))
		}
	}
	if testing.Short() {
		return
	}
	// Best of three builds each, so one descheduled run cannot decide.
	best := func(seq []uint32) time.Duration {
		fastest := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			Build(seq)
			if d := time.Since(start); d < fastest {
				fastest = d
			}
		}
		return fastest
	}
	r, o := best(random), best(outliner)
	// On a 2-CPU Xeon host a linear build reads 0.8x, the sibling walk 4.9x.
	if ratio := float64(o) / float64(r); ratio > 2.5 {
		t.Errorf("%d symbols: random16 built in %v, outliner-shaped in %v (%.1fx)", n, r, o, ratio)
	}
}

// benchTree keeps BenchmarkBuild's result live.
var benchTree *Tree

// BenchmarkBuild times Build on outliner-shaped sequences (see
// outlinerShaped) at three sizes. A linear build's ns/symbol grows only
// with cache misses as n doubles; a quadratic one doubles.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{50000, 100000, 200000} {
		seq := outlinerShaped(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTree = Build(seq)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/symbol")
		})
	}
}
