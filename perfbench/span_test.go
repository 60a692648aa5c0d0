package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		// Two children overlap (parallel workers): their union 10..50
		// counts once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		// A grandchild is charged to its own parent, not to run.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 30, 4: 30, 5: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerRecordsNestingOnlyWhenOn(t *testing.T) {
	tr := newTracer(true)
	tr.do("outer", 0, func(outer int) {
		tr.do("inner", outer, func(int) { time.Sleep(time.Millisecond) })
	})
	if len(tr.spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.spans))
	}
	outer, inner := tr.spans[0], tr.spans[1]
	if inner.Parent != outer.ID || inner.Start < outer.Start || inner.End > outer.End {
		t.Errorf("inner %+v not nested in outer %+v", inner, outer)
	}
	if inner.End-inner.Start < int64(time.Millisecond) {
		t.Errorf("inner span %d ns shorter than the call it wraps", inner.End-inner.Start)
	}

	off := newTracer(false)
	ran := false
	off.do("x", 0, func(id int) { ran = id == 0 })
	if !ran || len(off.spans) != 0 {
		t.Errorf("disabled tracer: ran=%v spans=%d; want the call run with no span", ran, len(off.spans))
	}
}
