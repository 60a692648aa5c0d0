// Package sim provides the discrete-event simulation engine that underpins
// every timed component in cxl2sim: a picosecond-resolution clock, an event
// heap, cooperative processes, serialized resources (links, ports, engines)
// and credit pools for modeling bounded queues.
//
// The engine is deliberately single-threaded: determinism matters more than
// host parallelism for a reproduction study, and transaction-level models are
// cheap enough that a single goroutine simulates billions of picoseconds per
// wall-clock second.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulated timestamp or duration in picoseconds. Picoseconds give
// integer exactness for sub-nanosecond link serialization (a 64B flit on a
// 64 GB/s link occupies exactly 1000 ps) while still covering ~106 days of
// simulated time in an int64.
type Time int64

// Convenient duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a time later than any event the engine will ever reach.
const Forever Time = math.MaxInt64

// Nanoseconds reports t as a float64 count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, for diagnostics.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 10*Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < 10*Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < 10*Millisecond:
		return fmt.Sprintf("%.2fus", t.Microseconds())
	default:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	}
}

// FromNanos converts a float64 nanosecond quantity to Time, rounding to the
// nearest picosecond.
func FromNanos(ns float64) Time { return Time(math.Round(ns * 1000)) }

// event is a scheduled callback. seq breaks ties so that events scheduled
// earlier at the same timestamp run first (FIFO within a timestamp), which
// keeps the simulation deterministic. Every event is stored in the
// argument-carrying form: the nullary At/After path wraps its func() as the
// argument of a shared trampoline, so one representation serves both APIs
// with no boxing (func values and pointers are interface-payload-sized).
type event struct {
	when Time
	seq  uint64
	call func(arg any)
	arg  any
}

// eventHeap is a concrete 4-ary min-heap of events ordered by (when, seq),
// stored flat in one slice — the non-boxing pattern timeHeap uses, widened
// to 4 children per node. Compared with container/heap this removes the
// per-push interface allocation and the Less/Swap indirect calls; compared
// with a binary heap it halves tree depth, trading slightly more sibling
// comparisons (cheap, same cache line) for fewer swap levels.
//
// Because (when, seq) is unique per event — seq strictly increases — the
// dispatch sequence is the total order by (when, seq) no matter how the
// heap arranges ties internally, so replacing the binary boxed heap cannot
// reorder dispatch: FIFO within a timestamp is preserved exactly.
type eventHeap []event

// before reports whether element i dispatches before element j.
func (h eventHeap) before(i, j int) bool {
	return h[i].when < h[j].when || (h[i].when == h[j].when && h[i].seq < h[j].seq)
}

func (h eventHeap) peek() event { return h[0] }

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !a.before(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *eventHeap) popEvent() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = event{} // release callback/arg references; the slot stays for reuse
	a = a[:n]
	*h = a
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for c++; c < end; c++ {
			if a.before(c, min) {
				min = c
			}
		}
		if !a.before(min, i) {
			break
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
	return top
}

// SourceShift is the bit position of the source-ID field in an event's
// 64-bit sequence key. The low 48 bits hold the per-source monotone
// counter (2^48 events ≈ 2.8e14, far beyond any run), the high 16 bits
// the source ID, so comparing packed keys numerically is exactly
// comparing (sourceID, perSourceSeq) lexicographically.
const SourceShift = 48

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped bool
	// srcTag is OR-ed into every locally scheduled event's sequence key
	// (see SetSourceID). Zero for ordinary single-engine use, in which
	// case keys are the plain monotone counter and nothing changes.
	srcTag uint64
	// Executed counts events dispatched since creation, for diagnostics.
	executed uint64
	// pairFree recycles two-argument event records (see AtCall2). The free
	// list is per-engine, not package-global, because the parallel runner
	// drives many engines from different goroutines at once.
	pairFree []*pairEvent
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetSourceID brands the engine as event source id for deterministic
// cross-engine merges: every locally scheduled event's tie-break key
// becomes id<<SourceShift | localSeq, and events injected from another
// engine via AtCallTagged carry that engine's id in their key. Two
// events at the same timestamp therefore dispatch in (sourceID,
// perSourceSeq) order no matter when the injected one arrived, which
// fixes the merge order of a multi-engine schedule (fabric.ShardSet).
// Call it once, before any event is scheduled.
func (e *Engine) SetSourceID(id int) {
	if id < 0 || id >= 1<<16 {
		panic(fmt.Sprintf("sim: source id %d out of range", id))
	}
	if len(e.events) > 0 || e.seq != 0 {
		panic("sim: SetSourceID after events were scheduled")
	}
	e.srcTag = uint64(id) << SourceShift
}

// Executed reports how many events have been dispatched.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are scheduled but not yet dispatched.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programmer error and panics, because silently reordering time would corrupt
// every latency measurement built on the engine.
//
// At itself never allocates, but a fn that captures variables is a fresh
// closure allocated at the call site. Hot loops that schedule per simulated
// operation should pass a preallocated func value, or use AtCall/AtCall2 to
// carry their state as an explicit argument.
func (e *Engine) At(t Time, fn func()) {
	e.AtCall(t, callNullary, fn)
}

// callNullary is the trampoline that lets At share the argument-carrying
// event representation: the scheduled func() rides in the arg slot.
func callNullary(arg any) { arg.(func())() }

// AtCall schedules fn(arg) at absolute time t. It is the zero-allocation
// scheduling primitive: fn should be a package-level function (or any
// preallocated func value) and arg the state it needs — typically the
// pointer a closure would have captured. Neither boxing fn nor a
// pointer-shaped arg allocates.
//
// The engine drops its reference to arg when the event dispatches; it never
// retains arg afterwards. Callers recycling args through a free list (see
// AtCall2's pool) must therefore return them only from inside the callback,
// never while the event is still pending.
func (e *Engine) AtCall(t Time, fn func(arg any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.pushEvent(event{when: t, seq: e.srcTag | e.seq, call: fn, arg: arg})
}

// AtCallTagged schedules fn(arg) at absolute time t under an explicit
// sequence key instead of the engine's own counter. It is the delivery
// half of a cross-engine message: the sender packs key as
// senderID<<SourceShift | senderSeq when it emits the message, and the
// receiving engine inserts it here, so the dispatch position among
// same-timestamp events is fixed by the sender — not by when the
// message happened to arrive. Keys from distinct source IDs never
// collide with local keys (the high bits differ), preserving the
// heap's total order.
func (e *Engine) AtCallTagged(t Time, key uint64, fn func(arg any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling tagged event at %v before now %v", t, e.now))
	}
	e.events.pushEvent(event{when: t, seq: key, call: fn, arg: arg})
}

// AfterCall is AtCall relative to the current time, with After's saturation
// semantics for delays that would overflow the clock.
func (e *Engine) AfterCall(d Time, fn func(arg any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t := e.now + d
	if t < e.now { // overflow: saturate rather than wrap
		t = Forever
	}
	e.AtCall(t, fn, arg)
}

// pairEvent carries a callback plus two payload words through AtCall's
// single argument slot. Records recycle through the engine's free list, so
// steady-state two-argument scheduling allocates nothing.
type pairEvent struct {
	eng  *Engine
	fn   func(a, b any)
	a, b any
}

// AtCall2 schedules fn(a, b) at absolute time t, drawing the carrier record
// from the engine's event pool. Ownership rule: the record is reclaimed (and
// its references cleared) when the event dispatches, before fn runs — the
// callback receives a and b as plain values and must not assume any backing
// record survives it.
func (e *Engine) AtCall2(t Time, fn func(a, b any), a, b any) {
	var pe *pairEvent
	if n := len(e.pairFree); n > 0 {
		pe = e.pairFree[n-1]
		e.pairFree = e.pairFree[:n-1]
	} else {
		pe = &pairEvent{eng: e}
	}
	pe.fn, pe.a, pe.b = fn, a, b
	e.AtCall(t, callPair, pe)
}

// callPair unpacks a pooled two-argument event, returns the record to the
// free list, then invokes the callback. Reclaiming first is safe — the
// payload lives in locals — and lets fn schedule again immediately, reusing
// the very record it arrived in.
func callPair(arg any) {
	pe := arg.(*pairEvent)
	eng, fn, a, b := pe.eng, pe.fn, pe.a, pe.b
	pe.fn, pe.a, pe.b = nil, nil, nil
	eng.pairFree = append(eng.pairFree, pe)
	fn(a, b)
}

// After schedules fn to run d after the current time. A delay so large
// that now+d would overflow the int64 clock saturates at Forever instead of
// wrapping negative (which would panic blaming a scheduling-in-the-past
// bug that does not exist); an event at Forever never fires under RunUntil
// with an earlier deadline, which is what "effectively never" means here.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	t := e.now + d
	if t < e.now { // overflow: saturate rather than wrap
		t = Forever
	}
	e.At(t, fn)
}

// Stop makes the currently executing Run/RunUntil/Advance return after the
// event that called it completes. Stop is only meaningful from inside an
// event callback: each RunUntil begins by clearing the flag, so a Stop
// issued while no dispatch loop is running is deliberately discarded rather
// than silently cancelling a future Run — pending events are not dropped,
// and the next Run dispatches them all. (This is also what lets Run be
// called again to resume after a Stop.)
func (e *Engine) Stop() { e.stopped = true }

// Run dispatches events until none remain or Stop is called. It returns the
// final simulated time.
func (e *Engine) Run() Time {
	return e.RunUntil(Forever)
}

// RunUntil dispatches events with timestamps <= deadline, advancing the clock
// to each event's time. If the event queue drains first, the clock is left at
// the last dispatched event (not advanced to the deadline). It returns the
// final simulated time. Any Stop from a previous (or not-yet-started)
// dispatch loop is cleared on entry; see Stop.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		when := e.events.peek().when
		if when > deadline {
			break
		}
		// Batch dispatch: advance the clock once, then drain the entire run
		// of events sharing this timestamp without re-checking the deadline
		// (when <= deadline covers every one of them, including events a
		// callback schedules at the current instant). Pops follow (when, seq)
		// order exactly as before, so dispatch order — and therefore every
		// simulation outcome — is unchanged; Stop is still honored between
		// events.
		e.now = when
		for {
			ev := e.events.popEvent()
			e.executed++
			ev.call(ev.arg)
			if e.stopped || len(e.events) == 0 || e.events.peek().when != when {
				break
			}
		}
	}
	return e.now
}

// NextEventAt reports the timestamp of the earliest pending event, or
// Forever when the queue is empty. A multi-engine schedule uses it as
// the engine's activation time: the engine cannot originate any new
// work before this instant.
func (e *Engine) NextEventAt() Time {
	if len(e.events) == 0 {
		return Forever
	}
	return e.events.peek().when
}

// RunWindow dispatches events with timestamps strictly before `until`,
// advancing the clock to each event's time, and returns the final
// simulated time. The strict bound is what makes it a safe lookahead
// window: a peer engine whose earliest future send arrives exactly at
// `until` cannot be overtaken, because the event at `until` has not
// run yet. Like RunUntil, the clock is left at the last dispatched
// event, never advanced to the window edge.
func (e *Engine) RunWindow(until Time) Time {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		when := e.events.peek().when
		if when >= until {
			break
		}
		// Same batch dispatch as RunUntil: events a callback schedules at
		// the current instant still satisfy when < until.
		e.now = when
		for {
			ev := e.events.popEvent()
			e.executed++
			ev.call(ev.arg)
			if e.stopped || len(e.events) == 0 || e.events.peek().when != when {
				break
			}
		}
	}
	return e.now
}

// Advance moves the clock forward to t, dispatching any events on the way,
// and leaves the clock exactly at t even if the queue drains early. It panics
// if t is in the past.
func (e *Engine) Advance(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: Advance to %v before now %v", t, e.now))
	}
	e.RunUntil(t)
	if e.now < t {
		e.now = t
	}
}
