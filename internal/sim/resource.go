package sim

import "fmt"

// Resource models a serialized, work-conserving server: a link, a DRAM
// channel, an accelerator engine, a CPU store port. A caller claims the
// resource for an occupancy (service time); claims are granted in arrival
// order and the resource serves exactly one claim at a time.
//
// Resource is the building block that makes bandwidth emerge from the model:
// when requests arrive faster than the resource can serve them, grant times
// queue up and measured throughput converges to 1/occupancy.
type Resource struct {
	name     string
	nextFree Time
	// busy accumulates total occupied time, for utilization reporting.
	busy Time
	// claims counts grants, for diagnostics.
	claims uint64
}

// NewResource returns a named serialized resource that is free at time zero.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Claim reserves the resource for occupancy starting no earlier than now.
// It returns the time at which service begins (>= now) — the completion time
// is start+occupancy. Claim never blocks; the caller incorporates the wait
// into its own event schedule.
func (r *Resource) Claim(now, occupancy Time) (start Time) {
	if occupancy < 0 {
		panic(fmt.Sprintf("sim: negative occupancy %v on %s", occupancy, r.name))
	}
	start = now
	if r.nextFree > start {
		start = r.nextFree
	}
	r.nextFree = start + occupancy
	r.busy += occupancy
	r.claims++
	return start
}

// ClaimN reserves n back-to-back occupancy slots starting no earlier than
// now and returns the start of the first slot. It is exactly equivalent to n
// consecutive Claim(now, occupancy) calls — after the first grant the
// resource's free time is at or past now, so the remaining grants pack
// back-to-back — but costs one call; block transfers that issue a run of
// identical line requests use it to batch the issue-serialization claim.
func (r *Resource) ClaimN(now, occupancy Time, n int) (start Time) {
	if occupancy < 0 {
		panic(fmt.Sprintf("sim: negative occupancy %v on %s", occupancy, r.name))
	}
	if n <= 0 {
		panic(fmt.Sprintf("sim: ClaimN of %d slots on %s", n, r.name))
	}
	start = now
	if r.nextFree > start {
		start = r.nextFree
	}
	total := occupancy * Time(n)
	r.nextFree = start + total
	r.busy += total
	r.claims += uint64(n)
	return start
}

// FreeAt reports when the resource becomes idle given no further claims.
func (r *Resource) FreeAt() Time { return r.nextFree }

// Busy reports the total time the resource has been occupied.
func (r *Resource) Busy() Time { return r.busy }

// Claims reports how many grants the resource has issued.
func (r *Resource) Claims() uint64 { return r.claims }

// Reset returns the resource to the free state with zeroed accounting.
func (r *Resource) Reset() { r.nextFree, r.busy, r.claims = 0, 0, 0 }

// Credits models a bounded pool of outstanding-request credits (MSHRs, link
// credits, DMA ring slots, LSQ entries). A caller acquires a credit at a
// time and releases it when the tracked operation completes; when the pool is
// empty the acquire time is pushed to the earliest release.
//
// Internally it keeps the multiset of outstanding completion times; acquiring
// beyond capacity waits for the earliest completion. This is exact for the
// in-order issue patterns used throughout the model.
type Credits struct {
	name     string
	capacity int
	// outstanding[head:] holds the completion times of in-flight operations
	// as a sorted ring: issue is monotone in time for every user in the
	// model, so Complete almost always appends and the retire scan in
	// Acquire just advances head — O(1) amortized where the previous
	// min-heap paid a sift per retire. The rare out-of-order completion
	// binary-inserts to keep the ring sorted, preserving exact
	// extract-earliest semantics for any call pattern.
	outstanding []Time
	head        int
	// earlyRetired holds completion times that an exhausted Acquire (or
	// Pipeline step) consumed from the ring before they had actually
	// expired: the grant `start = q[head]; head++` hands the credit to
	// the new operation at the instant the old one completes, but the
	// old operation is still in flight at any earlier instant.
	// InFlightAt needs those times to answer "how deep is the queue at
	// now" exactly; the plain InFlight (ring length) cannot see them.
	// earlyRetired[erHead:] is the live part, kept sorted and pruned
	// against the requested time like the ring itself. When arrivals
	// outpace service it grows with the backlog, so pruning advances
	// erHead and reclaims the dead prefix only once it dominates,
	// keeping each Acquire O(1) amortized.
	earlyRetired []Time
	erHead       int
}

// NewCredits returns a pool with the given capacity (> 0).
func NewCredits(name string, capacity int) *Credits {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: credits %q capacity %d", name, capacity))
	}
	// The ring oscillates between capacity and ~2x capacity entries between
	// reclaims; preallocating that span means steady-state Complete never
	// grows the backing array.
	return &Credits{name: name, capacity: capacity, outstanding: make([]Time, 0, 2*capacity+1)}
}

// Name returns the diagnostic name given at construction.
func (c *Credits) Name() string { return c.name }

// Capacity returns the pool size.
func (c *Credits) Capacity() int { return c.capacity }

// InFlight reports the number of credits currently held (not yet completed
// relative to the most recent Acquire's start time). Because retirement is
// lazy — completions leave the ring only when a later Acquire scans past
// them — this can overcount the operations genuinely outstanding at a
// given instant; use InFlightAt for an exact point-in-time depth.
func (c *Credits) InFlight() int { return len(c.outstanding) - c.head }

// InFlightAt reports exactly how many operations are still in flight at
// `now`: completions strictly after now, including those an exhausted
// Acquire already consumed from the ring (see earlyRetired). It never
// mutates pool state, so observers may probe at any time — including
// times earlier than the latest Acquire — without disturbing grant
// order.
func (c *Credits) InFlightAt(now Time) int {
	// Both lists are sorted: count the suffix strictly after now in each.
	return countAfter(c.outstanding[c.head:], now) + countAfter(c.earlyRetired[c.erHead:], now)
}

// countAfter reports how many entries of the sorted q are strictly after t.
func countAfter(q []Time, t Time) int {
	lo, hi := 0, len(q)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return len(q) - lo
}

// Acquire obtains a credit for an operation that starts at now and completes
// at completesAt. If the pool is exhausted, the start is delayed to the
// earliest outstanding completion, and the returned start reflects that. The
// caller must compute its own completion relative to the returned start and
// then call Complete with the final completion time.
func (c *Credits) Acquire(now Time) (start Time) {
	start = now
	q := c.outstanding
	h := c.head
	// Retire completions that have already finished by `now`: the ring is
	// sorted, so retiring is advancing head past the prefix <= start.
	for h < len(q) && q[h] <= start {
		h++
	}
	if len(q)-h >= c.capacity {
		// Pool exhausted. Every remaining completion is strictly after
		// `start` (the scan above retired the rest), so the earliest one is
		// the exact moment a credit frees: service is delayed to it, and
		// consuming it hands that credit to this operation. The consumed
		// operation remains observable in flight until then.
		c.recordEarlyRetire(q[h])
		start = q[h]
		h++
	}
	c.head = h
	// Drop early-retired entries at or before the requested time — the
	// same criterion the ring retire scan uses — keeping the list bounded
	// by the live window.
	c.pruneEarlyRetired(now)
	// Reclaim the retired prefix once it dominates the ring: the live window
	// is at most `capacity` entries, so this keeps the backing array bounded
	// by ~2x capacity and the copy cost O(1) amortized per operation.
	if h >= c.capacity && 2*h >= len(q) {
		n := copy(q, q[h:])
		c.outstanding = q[:n]
		c.head = 0
	}
	return start
}

// recordEarlyRetire notes that an exhausted grant consumed completion
// time t from the ring before it expired (see earlyRetired). Consumed
// minima are non-decreasing under monotone issue, so this is almost
// always an append; the rare out-of-order case binary-inserts.
func (c *Credits) recordEarlyRetire(t Time) {
	q := c.earlyRetired
	n := len(q)
	if n == c.erHead || t >= q[n-1] {
		c.earlyRetired = append(q, t)
		return
	}
	lo, hi := c.erHead, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = t
	c.earlyRetired = q
}

// pruneEarlyRetired drops early-retired completions at or before now.
func (c *Credits) pruneEarlyRetired(now Time) {
	q, h := c.earlyRetired, c.erHead
	for h < len(q) && q[h] <= now {
		h++
	}
	if 2*h >= len(q) {
		// The dead prefix is at least the live part: moving the live
		// part down costs no more than the drops that built the prefix.
		c.earlyRetired, h = q[:copy(q, q[h:])], 0
	}
	c.erHead = h
}

// Complete records that the operation admitted by a prior Acquire finishes at
// t, holding its credit until then.
func (c *Credits) Complete(t Time) {
	if c.head == len(c.outstanding) {
		// Ring empty: restart it at the front, recycling the backing array.
		c.outstanding = c.outstanding[:0]
		c.head = 0
	}
	q := c.outstanding
	n := len(q)
	if n == 0 || t >= q[n-1] {
		c.outstanding = append(q, t)
		return
	}
	// Out-of-order completion (no current caller issues one, but the API
	// allows it): binary-insert within the live window to keep the ring
	// sorted.
	lo, hi := c.head, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q = append(q, 0)
	copy(q[lo+1:], q[lo:])
	q[lo] = t
	c.outstanding = q
}

// Pipeline admits n operations whose request times step from t0 by dt
// (dt >= 0), each holding a credit for service time svc: operation i starts
// at Acquire(t0+i*dt) and completes svc later. It is exactly equivalent to n
// sequential Acquire/Complete pairs and returns the final completion time,
// but runs the ring recurrence in one call with the state in locals — the
// primitive block transfers use to batch a run of identical line requests.
func (c *Credits) Pipeline(t0, dt, svc Time, n int) (lastDone Time) {
	if dt < 0 || n <= 0 {
		panic(fmt.Sprintf("sim: credits %q pipeline dt %v, n %d", c.name, dt, n))
	}
	q, h := c.outstanding, c.head
	t := t0
	for i := 0; i < n; i++ {
		for h < len(q) && q[h] <= t {
			h++
		}
		start := t
		if len(q)-h >= c.capacity {
			c.pruneEarlyRetired(t)
			c.recordEarlyRetire(q[h])
			start = q[h]
			h++
		}
		done := start + svc
		if h == len(q) {
			q, h = q[:0], 0
		} else if last := len(q) - 1; done < q[last] {
			// Completions already outstanding finish later than this one
			// (possible only when mixed with callers using a larger svc):
			// fall back to the general insert to keep the ring sorted.
			c.outstanding, c.head = q, h
			c.Complete(done)
			q, h = c.outstanding, c.head
			t += dt
			lastDone = done
			continue
		}
		q = append(q, done)
		// Same bounded-ring reclaim as Acquire.
		if h >= c.capacity && 2*h >= len(q) {
			m := copy(q, q[h:])
			q, h = q[:m], 0
		}
		t += dt
		lastDone = done
	}
	c.outstanding, c.head = q, h
	return lastDone
}

// Reset empties the pool accounting.
func (c *Credits) Reset() {
	c.outstanding = c.outstanding[:0]
	c.head = 0
	c.earlyRetired = c.earlyRetired[:0]
	c.erHead = 0
}
