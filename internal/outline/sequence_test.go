package outline

import (
	"math/rand"
	"testing"
)

// mapSymbolizer is the reference interning the flat table must match: a
// Go map from word to symbol, with separators from the same counter.
type mapSymbolizer struct {
	dict map[uint32]uint32
	next uint32
}

func (s *mapSymbolizer) word(w uint32) uint32 {
	if id, ok := s.dict[w]; ok {
		return id
	}
	s.dict[w] = s.next
	s.next++
	return s.next - 1
}

// TestSymbolizerMatchesMap feeds the same streams of words and separators
// to the flat table and to the map reference and requires identical
// symbols: the extreme words 0 and 0xFFFFFFFF, words that share a home
// slot (so they probe past each other), and more distinct words than the
// initial table holds (so it grows mid-stream).
func TestSymbolizerMatchesMap(t *testing.T) {
	// Words colliding on one home slot of the initial table.
	var colliding []uint32
	for w := uint32(1); len(colliding) < 40; w++ {
		if symHome(w, 32-symbolizerLogSize) == symHome(0, 32-symbolizerLogSize) {
			colliding = append(colliding, w)
		}
	}
	r := rand.New(rand.NewSource(3))
	many := make([]uint32, 20000)
	for i := range many {
		many[i] = r.Uint32() >> uint(r.Intn(32)) // a spread of small and large words
	}
	for _, c := range []struct {
		name  string
		words []uint32
	}{
		{"extremes", []uint32{0, 0xFFFFFFFF, 0, 1, 0xFFFFFFFF, 0xFFFFFFFE, 1, 0}},
		{"colliding", append(append(append([]uint32(nil), colliding...), colliding...), 0)},
		{"growth", append(many, many[:500]...)},
	} {
		got, want := newSymbolizer(), &mapSymbolizer{dict: map[uint32]uint32{}}
		for i, w := range c.words {
			if i%7 == 3 {
				gs, ws := got.separator(), want.next
				want.next++
				if gs != ws {
					t.Fatalf("%s: separator %d = %d, want %d", c.name, i, gs, ws)
				}
			}
			if g, m := got.word(w), want.word(w); g != m {
				t.Fatalf("%s: word %d (%#x) = %d, want %d", c.name, i, w, g, m)
			}
		}
		if c.name == "growth" && len(got.slots) <= 1<<symbolizerLogSize {
			t.Errorf("growth: table never grew (%d slots for %d words)", len(got.slots), len(want.dict))
		}
	}
}
