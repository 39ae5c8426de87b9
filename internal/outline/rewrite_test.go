package outline

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/a64"
)

// TestMergeExt checks the one-pass merge of remapped existing call sites
// with new outlined ones against the sorted union, and that an existing
// list out of offset order is refused rather than silently misordered.
func TestMergeExt(t *testing.T) {
	shift := func(off int) (int, error) { return off / 2, nil } // monotonic, like a rewrite's remap
	old := []a64.ExtRef{{InstOff: 8, Symbol: 1}, {InstOff: 24, Symbol: 2}, {InstOff: 40, Symbol: 3}}
	added := []a64.ExtRef{{InstOff: 0, Symbol: 10}, {InstOff: 12, Symbol: 11}, {InstOff: 16, Symbol: 12}, {InstOff: 32, Symbol: 13}}
	got, err := mergeExt(old, added, shift)
	if err != nil {
		t.Fatal(err)
	}
	want := []a64.ExtRef{
		{InstOff: 0, Symbol: 10}, {InstOff: 4, Symbol: 1}, {InstOff: 12, Symbol: 2}, // a tie keeps the existing site first
		{InstOff: 12, Symbol: 11}, {InstOff: 16, Symbol: 12}, {InstOff: 20, Symbol: 3}, {InstOff: 32, Symbol: 13},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merge = %v\nwant %v", got, want)
	}
	if got, err := mergeExt(nil, added, shift); err != nil || !reflect.DeepEqual(got, added) {
		t.Errorf("merge into nothing = %v, %v", got, err)
	}

	unsorted := []a64.ExtRef{{InstOff: 24, Symbol: 1}, {InstOff: 8, Symbol: 2}}
	if _, err := mergeExt(unsorted, added, shift); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("unsorted call sites accepted: %v", err)
	}
}
