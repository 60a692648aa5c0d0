package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call the driver made into a layer: its name, the
// span that caused it (0 for none), and its start and end as offsets from
// the repetition's start. Spans are recorded around the driver's own
// calls into the simulator, never inside it.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the repetition ends. A disabled
// tracer only runs the wrapped calls, so untraced repetitions pay one
// branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do runs f inside a span named name under parent and passes f its own
// span ID, so calls f makes can name it as their parent.
func (t *tracer) do(name string, parent int, f func(id int)) {
	if !t.on {
		f(0)
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name})
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	f(id)
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// ID: its duration minus the part of its interval that its children
// cover. Children that overlap one another (calls on parallel workers)
// are counted once, and the parts of a child outside its parent are
// ignored.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}
