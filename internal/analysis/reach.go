package analysis

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/codegen"
	"repro/internal/dex"
)

// RootSet configures where reachability starts. The two sources compose:
// explicit Methods name the known entry points (an app's drivers, a
// profiler's hot set, a JNI registration table), and NoCallers adds every
// method the call graph records no caller for — the conservative stand-in
// for "externally visible" when no export metadata survives in the image.
type RootSet struct {
	// Methods are explicit entry points, by method ID.
	Methods []dex.MethodID
	// NoCallers, when set, roots every method with no recovered incoming
	// method edge. A method only called through an edge the walk failed
	// to resolve is then still a root, so NoCallers never converts
	// imprecision into deletion.
	NoCallers bool
}

// DefaultRoots is the root set for an image with no side information:
// every method without a recovered caller is an entry point. Under it,
// reachability can only remove methods that are called — and only by
// methods that are themselves unreachable — which is exactly the orphaned
// cluster a prior rewrite leaves behind.
func DefaultRoots() RootSet { return RootSet{NoCallers: true} }

// ParseRoots parses the -roots grammar every command shares: decimal
// method IDs separated by commas, with spaces allowed around each. A
// blank string is the empty list, which callers read as DefaultRoots; an
// empty entry, a non-number and a value above uint32 are errors.
func ParseRoots(s string) ([]dex.MethodID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ids []dex.MethodID
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("empty entry in root list %q", s)
		}
		id, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("root %q is not a method ID: %w", part, err)
		}
		ids = append(ids, dex.MethodID(id))
	}
	return ids, nil
}

// resolve readies rs for an n-method table: a root that names no slot is
// an error, since Reachable would drop it silently and a root set that
// roots nothing deletes the whole image, and the zero RootSet selects
// DefaultRoots.
func (rs RootSet) resolve(n int) (RootSet, error) {
	for _, id := range rs.Methods {
		if int(id) >= n {
			return rs, fmt.Errorf("analysis: root m%d is outside the method table (%d methods)", id, n)
		}
	}
	if len(rs.Methods) == 0 && !rs.NoCallers {
		return DefaultRoots(), nil
	}
	return rs, nil
}

// Reachability classifies every image region as live or dead under a
// root set.
type Reachability struct {
	Roots RootSet

	// LiveMethods is indexed by method-table slot. A zero-size stub
	// record is never live: it has no code to keep.
	LiveMethods []bool
	// LiveBlobs is indexed parallel to CallGraph.Blobs.
	LiveBlobs []bool
	// LiveThunks maps thunk symbol -> referenced by live code.
	LiveThunks map[int]bool

	// Imprecise reports that a live node had an unresolved or corrupt
	// edge. The classification is then fully conservative: everything is
	// live, and a debloat pass must not delete anything.
	Imprecise bool
}

// Reachable runs the worklist closure from roots over the call graph.
// Soundness contract: the recovered graph over-approximates runtime
// behavior edge-by-edge, and any residue of doubt — an EdgeUnknown, a
// corrupt record, a malformed blob with out-edges — flips Imprecise and
// keeps the whole image live. Dead therefore means provably dead.
func (cg *CallGraph) Reachable(roots RootSet) *Reachability {
	r := &Reachability{
		Roots:       roots,
		LiveMethods: make([]bool, len(cg.Nodes)),
		LiveBlobs:   make([]bool, len(cg.Blobs)),
		LiveThunks:  map[int]bool{},
	}

	var work []int // method slots to visit
	rootMethod := func(id dex.MethodID) {
		i := int(id)
		if i < 0 || i >= len(cg.Nodes) || r.LiveMethods[i] {
			return
		}
		if cg.Nodes[i].Size == 0 && !cg.Nodes[i].Corrupt {
			return // already a stub; nothing to keep live
		}
		r.LiveMethods[i] = true
		work = append(work, i)
	}
	for _, id := range roots.Methods {
		rootMethod(id)
	}
	if roots.NoCallers {
		called := make([]bool, len(cg.Nodes))
		for _, nd := range cg.Nodes {
			for _, e := range nd.Edges {
				if e.Kind == EdgeMethod && int(e.Target) < len(called) {
					called[e.Target] = true
				}
			}
		}
		for _, b := range cg.Blobs {
			for _, e := range b.Edges {
				if e.Kind == EdgeMethod && int(e.Target) < len(called) {
					called[e.Target] = true
				}
			}
		}
		for i := range cg.Nodes {
			if !called[i] {
				rootMethod(dexID(i))
			}
		}
	}

	liveBlob := func(bi int) {
		if bi < 0 || bi >= len(r.LiveBlobs) || r.LiveBlobs[bi] {
			return
		}
		r.LiveBlobs[bi] = true
		// Blob out-edges exist only on malformed images; a blob calling
		// anything is beyond the model, so go imprecise as well as
		// following the edges.
		for _, e := range cg.Blobs[bi].Edges {
			r.Imprecise = true
			switch e.Kind {
			case EdgeMethod:
				rootMethod(e.Target)
			case EdgeOutlined:
				if obi, ok := cg.blobIndexOf(e.Sym); ok {
					r.LiveBlobs[obi] = true
				}
			}
		}
	}

	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		nd := &cg.Nodes[i]
		if nd.Corrupt || nd.Unknown {
			r.Imprecise = true
		}
		for _, e := range nd.Edges {
			// A resolved java call routed through the java_entry thunk
			// carries the thunk symbol alongside the method target (an
			// EdgeOutlined Sym names a blob, not a thunk).
			if e.Sym != 0 && e.Kind != EdgeOutlined {
				r.LiveThunks[e.Sym] = true
			}
			switch e.Kind {
			case EdgeMethod:
				if t := int(e.Target); t >= 0 && t < len(cg.Nodes) && !r.LiveMethods[t] {
					if cg.Nodes[t].Size > 0 || cg.Nodes[t].Corrupt {
						r.LiveMethods[t] = true
						work = append(work, t)
					}
				}
			case EdgeOutlined:
				if bi, ok := cg.blobIndexOf(e.Sym); ok {
					liveBlob(bi)
				}
			case EdgeThunk:
				r.LiveThunks[e.Sym] = true
			case EdgeUnknown:
				r.Imprecise = true
			}
		}
	}

	if r.Imprecise {
		// Full conservatism: nothing may be deleted.
		for i := range r.LiveMethods {
			if cg.Nodes[i].Size > 0 || cg.Nodes[i].Corrupt {
				r.LiveMethods[i] = true
			}
		}
		for i := range r.LiveBlobs {
			r.LiveBlobs[i] = true
		}
		for _, sym := range cg.thunkSyms {
			r.LiveThunks[sym] = true
		}
	}
	return r
}

// blobIndexOf maps a blob symbol to its Blobs index.
func (cg *CallGraph) blobIndexOf(sym int) (int, bool) {
	for i, b := range cg.Blobs {
		if b.Sym == sym {
			return i, true
		}
	}
	return 0, false
}

// DeadMethods returns the slots classified dead, ascending. Zero-size
// stubs are not listed: they are already deleted.
func (r *Reachability) DeadMethods(cg *CallGraph) []dex.MethodID {
	var out []dex.MethodID
	for i, live := range r.LiveMethods {
		if !live && cg.Nodes[i].Size > 0 && !cg.Nodes[i].Corrupt {
			out = append(out, dexID(i))
		}
	}
	return out
}

// DeadBlobs returns the indexes of dead outlined functions, ascending.
func (r *Reachability) DeadBlobs() []int {
	var out []int
	for i, live := range r.LiveBlobs {
		if !live {
			out = append(out, i)
		}
	}
	return out
}

// WriteReport renders the deterministic reachability report consumed by
// oatlint -reach.
func (r *Reachability) WriteReport(w io.Writer, cg *CallGraph) error {
	liveM, stubs := 0, 0
	for i, live := range r.LiveMethods {
		switch {
		case live:
			liveM++
		case cg.Nodes[i].Size == 0 && !cg.Nodes[i].Corrupt:
			stubs++
		}
	}
	liveB := 0
	for _, live := range r.LiveBlobs {
		if live {
			liveB++
		}
	}
	rootDesc := fmt.Sprintf("%d explicit", len(r.Roots.Methods))
	if r.Roots.NoCallers {
		rootDesc += " + no-caller inference"
	}
	if _, err := fmt.Fprintf(w, "reachability: roots %s, precise=%v\n", rootDesc, !r.Imprecise); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "methods: %d live, %d dead, %d stubs\n",
		liveM, len(r.LiveMethods)-liveM-stubs, stubs); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "outlined: %d live, %d dead\n",
		liveB, len(r.LiveBlobs)-liveB); err != nil {
		return err
	}
	for _, id := range r.DeadMethods(cg) {
		if _, err := fmt.Fprintf(w, "dead m%d (%d bytes)\n", id, cg.Nodes[id].Size); err != nil {
			return err
		}
	}
	for _, bi := range r.DeadBlobs() {
		b := cg.Blobs[bi]
		if _, err := fmt.Fprintf(w, "dead %s (%d bytes)\n", codegen.SymName(b.Sym), b.Size); err != nil {
			return err
		}
	}
	syms := make([]int, 0, len(r.LiveThunks))
	for sym := range r.LiveThunks {
		syms = append(syms, sym)
	}
	sort.Ints(syms)
	for _, sym := range syms {
		if _, err := fmt.Fprintf(w, "live thunk %s\n", codegen.SymName(sym)); err != nil {
			return err
		}
	}
	return nil
}
