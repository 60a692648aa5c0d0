package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestSerialCancellation: with a pre-cancelled context, a serial run marks
// every job cancelled without running any of them, in submission order.
func TestSerialCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{ID: fmt.Sprintf("c/job%d", i), Run: func(*Ctx) (any, error) {
			ran.Add(1)
			return nil, nil
		}}
	}
	results := Run(jobs, Options{Workers: 1, Context: ctx})
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled context", ran.Load())
	}
	if got := CancelledCount(results); got != len(jobs) {
		t.Fatalf("CancelledCount = %d, want %d", got, len(jobs))
	}
	for i, r := range results {
		if !r.Cancelled || r.Panicked {
			t.Fatalf("result %d: Cancelled=%v Panicked=%v", i, r.Cancelled, r.Panicked)
		}
		if r.ID != jobs[i].ID || r.Index != i {
			t.Fatalf("result %d is %q@%d, want %q@%d", i, r.ID, r.Index, jobs[i].ID, i)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d: Err = %v, want wrapped context.Canceled", i, r.Err)
		}
	}
	if _, err := Values(results); !errors.Is(err, context.Canceled) {
		t.Fatalf("Values error = %v, want wrapped context.Canceled", err)
	}
}

// TestParallelCancellation: cancelling mid-run lets in-flight jobs finish,
// skips undispatched ones, and keeps result slots aligned to submission
// order. The first job cancels the run itself and every other job waits for
// that cancellation before returning, so the second worker cannot drain the
// queue first: at most jobs 0, 1 and the one send already in flight run.
func TestParallelCancellation(t *testing.T) {
	const n = 24
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{ID: fmt.Sprintf("pc/job%d", i), Run: func(*Ctx) (any, error) {
			if i == 0 {
				cancel()
			} else {
				<-ctx.Done()
			}
			return i, nil
		}}
	}
	results := Run(jobs, Options{Workers: 2, Context: ctx})
	cancelled := CancelledCount(results)
	if cancelled < n-3 {
		t.Fatalf("CancelledCount = %d, want at least %d of %d", cancelled, n-3, n)
	}
	for i, r := range results {
		if r.ID != jobs[i].ID || r.Index != i {
			t.Fatalf("result %d is %q@%d, want %q@%d", i, r.ID, r.Index, jobs[i].ID, i)
		}
		switch {
		case r.Cancelled:
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("cancelled result %d: Err = %v", i, r.Err)
			}
		case r.Err != nil:
			t.Fatalf("dispatched result %d failed: %v", i, r.Err)
		default:
			if r.Value != i {
				t.Fatalf("dispatched result %d: Value = %v, want %d", i, r.Value, i)
			}
		}
	}
}

// TestNilContextRunsEverything: a nil Options.Context means no
// cancellation — every job runs.
func TestNilContextRunsEverything(t *testing.T) {
	jobs := echoJobs(6)
	results := Run(jobs, Options{Workers: 3})
	if got := CancelledCount(results); got != 0 {
		t.Fatalf("CancelledCount = %d, want 0", got)
	}
	if _, err := Values(results); err != nil {
		t.Fatalf("Values error: %v", err)
	}
}
