package sim

import (
	"testing"
)

// TestRunWindowStrictBound pins the conservative-window contract: events
// strictly before the bound run, an event exactly at the bound does not,
// and the clock stays at the last dispatched event.
func TestRunWindowStrictBound(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := func(arg any) { got = append(got, arg.(Time)) }
	for _, at := range []Time{10, 20, 30, 40} {
		e.AtCall(at, rec, at)
	}
	if now := e.RunWindow(30); now != 20 {
		t.Fatalf("RunWindow(30) left clock at %v, want 20", now)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("dispatched %v, want [10 20]", got)
	}
	if next := e.NextEventAt(); next != 30 {
		t.Fatalf("NextEventAt = %v, want 30", next)
	}
	// Resuming with a wider window picks up where the first left off.
	e.RunWindow(Forever)
	if len(got) != 4 || got[3] != 40 {
		t.Fatalf("after full run dispatched %v, want all four", got)
	}
	if e.NextEventAt() != Forever {
		t.Fatalf("NextEventAt on empty queue = %v, want Forever", e.NextEventAt())
	}
}

// TestRunWindowSameInstantScheduling checks that an event scheduling more
// work at the current instant keeps it inside the same window (when < until
// still holds for it).
func TestRunWindowSameInstantScheduling(t *testing.T) {
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 3 {
			e.At(e.Now(), chain)
		}
	}
	e.At(5, chain)
	e.RunWindow(6)
	if n != 3 {
		t.Fatalf("chained same-instant events ran %d times, want 3", n)
	}
}

// TestSourceTaggedMergeOrder pins the cross-engine merge contract: at an
// equal timestamp, events dispatch by (sourceID, perSourceSeq) regardless
// of the order they were inserted into the receiving engine. This is the
// property that fixes the merge order of a multi-engine schedule.
func TestSourceTaggedMergeOrder(t *testing.T) {
	e := NewEngine()
	e.SetSourceID(2)
	var got []string
	rec := func(arg any) { got = append(got, arg.(string)) }

	// Local events first (source 2, seqs 1 and 2)...
	e.AtCall(100, rec, "local-1")
	e.AtCall(100, rec, "local-2")
	// ...then inject messages from sources 1 and 3 at the same instant,
	// deliberately inserting the higher source first.
	e.AtCallTagged(100, 3<<SourceShift|1, rec, "src3-1")
	e.AtCallTagged(100, 1<<SourceShift|2, rec, "src1-2")
	e.AtCallTagged(100, 1<<SourceShift|1, rec, "src1-1")

	e.Run()
	want := []string{"src1-1", "src1-2", "local-1", "local-2", "src3-1"}
	if len(got) != len(want) {
		t.Fatalf("dispatched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestSetSourceIDGuards pins the misuse panics: out-of-range IDs and
// retagging an engine that already scheduled events.
func TestSetSourceIDGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative id", func() { NewEngine().SetSourceID(-1) })
	mustPanic("huge id", func() { NewEngine().SetSourceID(1 << 16) })
	mustPanic("late tag", func() {
		e := NewEngine()
		e.At(1, func() {})
		e.SetSourceID(1)
	})
	mustPanic("tagged in past", func() {
		e := NewEngine()
		e.At(10, func() {})
		e.Run()
		e.AtCallTagged(5, 1<<SourceShift|1, func(any) {}, nil)
	})
}

// TestCreditsInFlightAt pins the eager point-in-time queue-depth fix: the
// lazy ring overcounts completed operations until a later Acquire scans
// them out; InFlightAt must not.
func TestCreditsInFlightAt(t *testing.T) {
	c := NewCredits("test", 4)
	c.Acquire(0)
	c.Complete(10)
	c.Acquire(0)
	c.Complete(20)

	// Nothing has retired the ring, so the legacy count still says 2...
	if got := c.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2 (lazy ring)", got)
	}
	// ...but at now=50 both operations have long completed.
	if got := c.InFlightAt(50); got != 0 {
		t.Fatalf("InFlightAt(50) = %d, want 0", got)
	}
	if got := c.InFlightAt(15); got != 1 {
		t.Fatalf("InFlightAt(15) = %d, want 1", got)
	}
	if got := c.InFlightAt(5); got != 2 {
		t.Fatalf("InFlightAt(5) = %d, want 2", got)
	}
	// InFlightAt must not disturb grant order: an Acquire at 15 still sees
	// the op completing at 20 in flight.
	if start := c.Acquire(15); start != 15 {
		t.Fatalf("Acquire(15) start = %v, want 15", start)
	}
	c.Complete(30)
}

// TestCreditsInFlightAtExhausted covers the early-retire path: an
// exhausted Acquire consumes the earliest completion from the ring, but
// that operation is still in flight at instants before its completion
// and must stay observable.
func TestCreditsInFlightAtExhausted(t *testing.T) {
	c := NewCredits("test", 1)
	if start := c.Acquire(0); start != 0 {
		t.Fatalf("first Acquire start = %v, want 0", start)
	}
	c.Complete(100)
	// Pool exhausted: the grant waits for (and consumes) the completion
	// at 100.
	if start := c.Acquire(0); start != 100 {
		t.Fatalf("exhausted Acquire start = %v, want 100", start)
	}
	c.Complete(200)

	// At now=50 both operations are genuinely in flight: the first
	// completes at 100 (consumed from the ring, held in earlyRetired),
	// the second at 200.
	if got := c.InFlightAt(50); got != 2 {
		t.Fatalf("InFlightAt(50) = %d, want 2", got)
	}
	if got := c.InFlightAt(150); got != 1 {
		t.Fatalf("InFlightAt(150) = %d, want 1", got)
	}
	if got := c.InFlightAt(250); got != 0 {
		t.Fatalf("InFlightAt(250) = %d, want 0", got)
	}
}

// TestCreditsPipelineEarlyRetire checks the same observability through
// the batched Pipeline path.
func TestCreditsPipelineEarlyRetire(t *testing.T) {
	c := NewCredits("test", 2)
	// 4 ops requested at t=0, each holding a credit for 100: ops 1 and 2
	// run [0,100], ops 3 and 4 wait for them and run [100,200].
	last := c.Pipeline(0, 0, 100, 4)
	if last != 200 {
		t.Fatalf("Pipeline lastDone = %v, want 200", last)
	}
	if got := c.InFlightAt(50); got != 4 {
		t.Fatalf("InFlightAt(50) = %d, want 4", got)
	}
	if got := c.InFlightAt(150); got != 2 {
		t.Fatalf("InFlightAt(150) = %d, want 2", got)
	}
	if got := c.InFlightAt(350); got != 0 {
		t.Fatalf("InFlightAt(350) = %d, want 0", got)
	}
}
