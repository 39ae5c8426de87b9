package outline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// countingSeq counts separator scans, so a test can tell whether a pool
// picked up any work.
type countingSeq struct {
	Sequence
	scans *atomic.Int32
}

func (c countingSeq) Mask() []bool {
	c.scans.Add(1)
	return c.Sequence.Mask()
}

// TestNestedPoolsCancel covers the pool that runs nested inside a group
// task: the separator scan, called directly (buildSequence) and through
// the group's detection (outlineGroup). On an already-cancelled context
// both must return context.Canceled, no partial result, and start no
// scan, at the serial and the parallel pool width alike.
func TestNestedPoolsCancel(t *testing.T) {
	app, _ := genApp(t, 5, 60)
	cms := compile(t, app, true)
	var scans atomic.Int32
	units := make([]Sequence, len(cms))
	group := make([]int, len(cms))
	for i, cm := range cms {
		units[i] = countingSeq{Sequence: methodSeq{cm: cm}, scans: &scans}
		group[i] = i
	}

	// The uncancelled run scans every unit, so a zero count below means
	// the context stopped the pool, not that the counter is blind.
	var st Stats
	seq, _, err := buildSequence(context.Background(), units, group, Options{}.withDefaults(), &st)
	if err != nil || len(seq) == 0 {
		t.Fatalf("background scan: %d symbols, err %v", len(seq), err)
	}
	if got := scans.Swap(0); got != int32(len(group)) {
		t.Fatalf("background scan ran %d masks, want %d", got, len(group))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers}.withDefaults()
		seq, pos, err := buildSequence(ctx, units, group, opts, &st)
		if !errors.Is(err, context.Canceled) || seq != nil || pos != nil {
			t.Errorf("workers=%d: buildSequence = (%d symbols, %d positions, %v), want (nil, nil, context.Canceled)",
				workers, len(seq), len(pos), err)
		}
		funcs, _, _, err := outlineGroup(ctx, units, group, opts)
		if !errors.Is(err, context.Canceled) || funcs != nil {
			t.Errorf("workers=%d: outlineGroup = (%d functions, %v), want (nil, context.Canceled)",
				workers, len(funcs), err)
		}
	}
	if got := scans.Load(); got != 0 {
		t.Errorf("%d separator scans ran on a cancelled context", got)
	}
}
