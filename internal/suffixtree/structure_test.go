package suffixtree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateStructure = flag.Bool("update", false, "rewrite the tree-structure golden file")

// outlinerShaped returns an n-symbol sequence shaped like the outliner's
// global sequence: instruction symbols from an alphabet of n/16, with a
// symbol unique to its position after every 1-8 of them, and a unique
// terminator. The unique separators make the root's child list as long as
// the number of basic blocks, which is what every edge split under the
// root has to relink.
func outlinerShaped(n int, seed int64) []uint32 {
	r := rand.New(rand.NewSource(seed))
	alpha := n / 16
	if alpha < 2 {
		alpha = 2
	}
	next := uint32(alpha) // separators share the symbol counter, like the outliner's symbolizer
	seq := make([]uint32, 0, n)
	for len(seq) < n-1 {
		for run := 1 + r.Intn(8); run > 0 && len(seq) < n-1; run-- {
			seq = append(seq, uint32(r.Intn(alpha)))
		}
		seq = append(seq, next)
		next++
	}
	if len(seq) < n {
		seq = append(seq, next)
	}
	return seq
}

// random16 is TestTreeScalesLinearly's sequence: n symbols from a 16-symbol
// alphabet and a unique terminator.
func random16(n int) []uint32 {
	r := rand.New(rand.NewSource(2))
	seq := make([]uint32, n)
	for i := range seq {
		seq[i] = uint32(r.Intn(16))
	}
	return append(seq, 0xFFFFFFFF)
}

// structureHash digests every node in index order: its edge bounds, suffix
// link, depth, leaf count, and its child list in sibling order.
func structureHash(t *Tree) string {
	h := sha256.New()
	var buf []byte
	for i := range t.nodes {
		nd := &t.nodes[i]
		buf = buf[:0]
		for _, v := range []int64{int64(nd.start), int64(nd.end), int64(nd.link), int64(nd.depth), int64(nd.leafCount)} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		for c := nd.firstChild; c != -1; c = t.nodes[c].nextSibling {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		}
		buf = binary.LittleEndian.AppendUint32(buf, 0xFFFFFFFF) // end of child list
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTreeStructurePin pins the exact node numbering of built trees: each
// node's start, end, link, depth, leaf count, and ordered child list. The
// outliner's repeat tie-break (the node index), Occurrences order, and
// FirstOccurrence all read this structure, so any change to how the tree
// is built must leave it bit-identical, not just "still a valid suffix
// tree". Regenerate (deliberately) with `go test ./internal/suffixtree -update`.
func TestTreeStructurePin(t *testing.T) {
	inputs := []struct {
		name string
		seq  []uint32
	}{
		{"banana", sym("banana$")},
		{"mississippi", sym("mississippi$")},
		{"random16-20000", random16(20000)},
		{"outliner-20000", outlinerShaped(20000, 3)},
	}
	var sb strings.Builder
	for _, in := range inputs {
		tr := Build(in.seq)
		fmt.Fprintf(&sb, "%s nodes=%d %s\n", in.name, tr.NumNodes(), structureHash(tr))
	}
	golden := filepath.Join("testdata", "structure.golden")
	if *updateStructure {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("tree structure moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
