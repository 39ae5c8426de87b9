package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapCtxCancelStopsPromptly proves the daemon's cancellation story at
// the pool level: with workers mid-task when the context is cancelled,
// the in-flight tasks finish, no new task starts, and the call reports
// ctx.Err().
func TestMapCtxCancelStopsPromptly(t *testing.T) {
	const n, workers = 1000, 4
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := MapCtx(ctx, workers, n, func(i int) (int, error) {
		if started.Add(1) == workers {
			// The pool is saturated: every worker is inside a task.
			cancel()
		}
		// Hold the task open until cancellation so the pool cannot race
		// ahead of the cancel; tasks end only after ctx is done.
		<-ctx.Done()
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got >= n {
		t.Fatalf("all %d tasks ran despite cancellation", got)
	} else if got > workers {
		t.Fatalf("%d tasks started after the pool saturated (workers=%d): cancellation was not checked at pickup", got, workers)
	}
}

// TestMapCtxDeadline exercises the deadline path the per-job timeouts
// use: an expired deadline stops the batch and surfaces DeadlineExceeded.
func TestMapCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	var ran atomic.Int64
	_, err := MapCtx(ctx, 2, 10_000, func(i int) (int, error) {
		ran.Add(1)
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := ran.Load(); got >= 10_000 {
		t.Fatalf("all tasks ran despite the deadline")
	}
}

// TestMapCtxSerialCancel covers the w<=1 fast path, which checks the
// context between tasks rather than at pool pickup.
func TestMapCtxSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	_, err := MapCtx(ctx, 1, 100, func(i int) (int, error) {
		ran++
		if i == 3 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 4 {
		t.Fatalf("ran %d tasks, want exactly 4 (cancel observed before task 4)", ran)
	}
}

// TestEachCtxCancel covers EachCtx on a pre-cancelled context.
func TestEachCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := EachCtx(ctx, 4, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran on a pre-cancelled context", ran.Load())
	}
}
