package check

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Oracle is a shadow memory of architectural line contents: the bytes the
// platform is obliged to return for each line, regardless of where the
// caches currently keep them. Stimulus harnesses record every store into
// the oracle and validate every load against it — the data-value face of
// the paper's cross-validation methodology, strictly stronger than state
// checking alone (a stale copy with a legal MESI state still fails).
type Oracle struct {
	lines map[phys.Addr][]byte
}

// NewOracle returns an empty oracle; unknown lines are architecturally
// zero, matching mem.Store semantics.
func NewOracle() *Oracle {
	return &Oracle{lines: make(map[phys.Addr][]byte)}
}

// Write records the architectural content of the line containing addr.
func (o *Oracle) Write(addr phys.Addr, data []byte) {
	if len(data) != phys.LineSize {
		panic(fmt.Sprintf("check: oracle write of %d bytes", len(data)))
	}
	base := phys.LineAddr(addr)
	l, ok := o.lines[base]
	if !ok {
		l = make([]byte, phys.LineSize)
		o.lines[base] = l
	}
	copy(l, data)
}

// Copy records that dst now holds src's architectural content (a DSA copy
// or an offload data move).
func (o *Oracle) Copy(src, dst phys.Addr) {
	o.Write(dst, o.Expect(src))
}

// Expect returns the architectural content of the line containing addr
// (zero bytes for never-written lines).
func (o *Oracle) Expect(addr phys.Addr) []byte {
	if l, ok := o.lines[phys.LineAddr(addr)]; ok {
		return l
	}
	return make([]byte, phys.LineSize)
}

// Lines returns the set of written line addresses.
func (o *Oracle) Lines() []phys.Addr {
	out := make([]phys.Addr, 0, len(o.lines))
	for a := range o.lines {
		out = append(out, a)
	}
	return out
}

// Verify checks a load result against the oracle. got must be the full
// 64-byte line; the error names the first mismatching byte.
func (o *Oracle) Verify(addr phys.Addr, got []byte) error {
	if got == nil {
		return fmt.Errorf("check: oracle: load of %v returned no data", phys.LineAddr(addr))
	}
	if len(got) != phys.LineSize {
		return fmt.Errorf("check: oracle: load of %v returned %d bytes", phys.LineAddr(addr), len(got))
	}
	want := o.Expect(addr)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("check: oracle: %v byte %d = %#02x, want %#02x (stale or corrupted copy)",
				phys.LineAddr(addr), i, got[i], want[i])
		}
	}
	return nil
}

// Monitor tracks the cross-step sanity invariants of a stimulus run:
// simulated time must be monotonic (issue times non-decreasing, every
// completion at or after its issue), event counters must never run
// backwards, and cache occupancy must never exceed capacity. One Monitor
// watches one platform for the duration of a run.
type Monitor struct {
	h         *host.Host
	devs      []*device.Device
	last      sim.Time
	caches    []*cache.Cache
	prevCache []cache.Stats
	prevDev   []device.Stats
	prevHome  [3]uint64
}

// NewMonitor builds a monitor over a host and the DCOH slices attached to
// it (one slice for a plain device).
func NewMonitor(h *host.Host, devs ...*device.Device) *Monitor {
	m := &Monitor{h: h, devs: devs}
	m.caches = append(m.caches, h.LLC())
	for _, d := range devs {
		if d.HMC() != nil {
			m.caches = append(m.caches, d.HMC())
		}
		if d.DMC() != nil {
			m.caches = append(m.caches, d.DMC())
		}
	}
	m.prevCache = make([]cache.Stats, len(m.caches))
	for i, c := range m.caches {
		m.prevCache[i] = c.Stats()
	}
	m.prevDev = make([]device.Stats, len(devs))
	for i, d := range devs {
		m.prevDev[i] = d.Stats()
	}
	m.prevHome[0], m.prevHome[1], m.prevHome[2] = h.Home().Stats()
	return m
}

// Step validates one operation that issued at issue and completed at done,
// returning the first violated invariant or nil.
func (m *Monitor) Step(issue, done sim.Time) error {
	if issue < m.last {
		return fmt.Errorf("check: simulated time ran backwards: op issued at %v after an op issued at %v", issue, m.last)
	}
	if done < issue {
		return fmt.Errorf("check: op completed at %v before it issued at %v", done, issue)
	}
	m.last = issue
	return m.resources()
}

// resources validates occupancy bounds and counter monotonicity.
func (m *Monitor) resources() error {
	for i, c := range m.caches {
		if n, cap := c.CountValid(), c.Sets()*c.Ways(); n > cap {
			return fmt.Errorf("check: cache %s holds %d valid lines, capacity %d", c.Name(), n, cap)
		}
		cur, prev := c.Stats(), m.prevCache[i]
		if cur.Hits < prev.Hits || cur.Misses < prev.Misses || cur.Fills < prev.Fills ||
			cur.Evictions < prev.Evictions || cur.Writebacks < prev.Writebacks ||
			cur.Invalidations < prev.Invalidations {
			return fmt.Errorf("check: cache %s counters ran backwards: %+v -> %+v", c.Name(), prev, cur)
		}
		m.prevCache[i] = cur
	}
	for i, d := range m.devs {
		cur, prev := d.Stats(), m.prevDev[i]
		if cur.D2H < prev.D2H || cur.D2D < prev.D2D || cur.H2D < prev.H2D ||
			cur.HMCHits < prev.HMCHits || cur.DMCHits < prev.DMCHits ||
			cur.BiasFlips < prev.BiasFlips || cur.HMCWritebacks < prev.HMCWritebacks ||
			cur.DevMemReads < prev.DevMemReads || cur.DevWrites < prev.DevWrites {
			return fmt.Errorf("check: device counters ran backwards: %+v -> %+v", prev, cur)
		}
		m.prevDev[i] = cur
	}
	r, w, b := m.h.Home().Stats()
	if r < m.prevHome[0] || w < m.prevHome[1] || b < m.prevHome[2] {
		return fmt.Errorf("check: home-agent counters ran backwards: (%d,%d,%d) -> (%d,%d,%d)",
			m.prevHome[0], m.prevHome[1], m.prevHome[2], r, w, b)
	}
	m.prevHome[0], m.prevHome[1], m.prevHome[2] = r, w, b
	return nil
}
