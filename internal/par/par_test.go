package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d, want 7", got)
	}
}

// TestMapDeterministicOrder checks that results land at their input index
// for a wide spread of worker counts and sizes.
func TestMapDeterministicOrder(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			got, err := MapCtx(context.Background(), w, n, func(i int) (int, error) { return i * i, nil })
			if err != nil {
				t.Fatalf("w=%d n=%d: %v", w, n, err)
			}
			if len(got) != n {
				t.Fatalf("w=%d n=%d: %d results", w, n, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("w=%d n=%d: out[%d] = %d, want %d", w, n, i, v, i*i)
				}
			}
		}
	}
}

// TestMapLowestErrorWins checks that the reported error is the lowest
// failing index's for every worker count, matching the serial run.
func TestMapLowestErrorWins(t *testing.T) {
	fail := map[int]bool{3: true, 41: true, 97: true}
	want := "input 3 failed"
	for _, w := range []int{1, 2, 8, 32} {
		_, err := MapCtx(context.Background(), w, 100, func(i int) (int, error) {
			if fail[i] {
				return 0, fmt.Errorf("input %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != want {
			t.Errorf("w=%d: err = %v, want %q", w, err, want)
		}
	}
}

// TestMapRunsEverything checks that a parallel pool visits every index
// exactly once.
func TestMapRunsEverything(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	if err := EachCtx(context.Background(), 8, n, func(i int) error {
		counts[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

// TestBatchedClaimCoversOddSizes sweeps (n, workers) shapes where the
// batched index-range pickup has ragged tails — n not divisible by the
// batch, batches wider than the remainder, more workers than batches —
// and checks every index still runs exactly once.
func TestBatchedClaimCoversOddSizes(t *testing.T) {
	for _, n := range []int{1, 2, 7, 63, 64, 65, 500, 1023, 4099} {
		for _, w := range []int{2, 3, 8, 16} {
			counts := make([]atomic.Int32, n)
			if err := EachCtx(context.Background(), w, n, func(i int) error {
				counts[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d w=%d: index %d ran %d times", n, w, i, c)
				}
			}
		}
	}
}

// TestEachError checks EachCtx propagates failures.
func TestEachError(t *testing.T) {
	err := EachCtx(context.Background(), 4, 10, func(i int) error {
		if i >= 5 {
			return fmt.Errorf("boom %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 5" {
		t.Errorf("err = %v, want boom 5", err)
	}
	if err := EachCtx(context.Background(), 4, 10, func(int) error { return nil }); err != nil {
		t.Errorf("clean EachCtx: %v", err)
	}
}

// TestMapObsObservesEveryTask checks that the observer fires exactly once
// per index with a valid worker id, at every pool width including the
// serial fast path, and that results are unchanged by observation.
func TestMapObsObservesEveryTask(t *testing.T) {
	const n = 200
	for _, w := range []int{1, 2, 8} {
		var mu sync.Mutex
		seen := make(map[int]int) // index -> observations
		workerMax := 0
		obs := func(worker, index int, queueWait, run time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			seen[index]++
			if worker > workerMax {
				workerMax = worker
			}
			if queueWait < 0 || run < 0 {
				t.Errorf("w=%d: negative timing for index %d: queue %v run %v", w, index, queueWait, run)
			}
		}
		got, err := MapObsCtx(context.Background(), w, n, obs, func(i int) (int, error) { return i * 3, nil })
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		for i, v := range got {
			if v != i*3 {
				t.Fatalf("w=%d: out[%d] = %d", w, i, v)
			}
		}
		if len(seen) != n {
			t.Errorf("w=%d: observed %d distinct indices, want %d", w, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("w=%d: index %d observed %d times", w, i, c)
			}
		}
		bound := Workers(w)
		if bound > n {
			bound = n
		}
		if workerMax >= bound {
			t.Errorf("w=%d: worker id %d out of range [0,%d)", w, workerMax, bound)
		}
	}
}

// TestMapObsErrorStillObserved checks the lowest-index error survives with
// an observer attached, and the serial path observes the failing task.
func TestMapObsErrorStillObserved(t *testing.T) {
	for _, w := range []int{1, 4} {
		var calls atomic.Int32
		obs := func(worker, index int, queueWait, run time.Duration) { calls.Add(1) }
		_, err := MapObsCtx(context.Background(), w, 50, obs, func(i int) (int, error) {
			if i == 7 || i == 31 {
				return 0, fmt.Errorf("fail %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail 7" {
			t.Errorf("w=%d: err = %v, want fail 7", w, err)
		}
		if calls.Load() == 0 {
			t.Errorf("w=%d: observer never called", w)
		}
	}
}

// TestEachObs checks EachObsCtx forwards the observer.
func TestEachObs(t *testing.T) {
	var calls atomic.Int32
	err := EachObsCtx(context.Background(), 3, 20, func(worker, index int, queueWait, run time.Duration) {
		calls.Add(1)
	}, func(i int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 20 {
		t.Errorf("observer called %d times, want 20", calls.Load())
	}
}
