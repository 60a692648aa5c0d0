// Package cache implements the set-associative coherence caches of the
// model: the host L1/L2/LLC levels, the device's host-memory cache (HMC,
// 4-way 128 KB) and device-memory cache (DMC, direct-mapped 32 KB).
//
// A Cache tracks per-line MESI(+Owned) state and optionally the line's 64
// bytes of data, with true LRU replacement within a set. Coherence *policy*
// (who may invalidate whom, Table III of the paper) lives in the coherence
// and device packages; this package provides the mechanics.
//
// Line storage is materialized on demand, in two blocks per set. The
// paper's §V methodology times accesses to thousands of distinct lines,
// each alone in its set of a 16-way LLC, and every job of the parallel
// runner builds its own rig, so zeroing all ways of every touched set
// once dominated the rigs' allocation volume. A set's way 0 is a one-line
// block carved on the set's first Fill; ways 1…ways−1 are a second block
// carved only when the set first needs a second way. Way 0 followed by the
// second block is the dense way-index order, which free-way choice, the
// LRU victim and the VisitValid/FlushAll/FlushRange order all follow, so
// behavior is that of a dense ways-wide array: storage not yet carved and
// Invalid lines are indistinguishable through the API. The per-set header
// is one pointer, held in 64-set chunk blocks allocated on the first Fill
// in the chunk under an eager index of one slice header per chunk.
//
// Blocks never move once carved, so a *Line returned by Lookup or Peek
// stays valid across later fills, and callers may mutate it in place.
// Line data buffers are carved from per-cache slabs by SetData; a buffer
// leaves with its line, as Victim.Data or Invalidate's slice, and is never
// handed to another line.
package cache

import (
	"fmt"

	"repro/internal/phys"
)

// State is a cache-line coherence state. The model uses MESI for host
// caches and HMC; DMC additionally uses Owned to reproduce the §V-C H2D
// experiments (lines "in owned" vs "in shared" vs "modified").
type State uint8

// Coherence states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
	Owned
)

// String returns the one-letter conventional name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Owned:
		return "O"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Line is one cache line's bookkeeping. Data is nil in timing-only mode.
type Line struct {
	Tag   phys.Addr // line-aligned address
	State State
	Data  []byte // nil or LineSize bytes
	// lru is the set-local recency counter (higher = more recent).
	lru uint64
}

// Valid reports whether the line holds a translation (state != I).
func (l *Line) Valid() bool { return l != nil && l.State != Invalid }

// Stats counts cache events for reporting.
type Stats struct {
	Hits, Misses, Fills, Evictions, Writebacks, Invalidations uint64
}

// Victim describes a line evicted by Fill: its address, state and data at
// eviction time. Callers write back Modified/Owned victims.
type Victim struct {
	Addr  phys.Addr
	State State
	Data  []byte
}

// Dirty reports whether the victim must be written back.
func (v Victim) Dirty() bool { return v.State == Modified || v.State == Owned }

// chunkShift sizes the lazy set-header blocks: 1<<chunkShift sets per
// chunk. 64 sets keeps the eager outer index 64× smaller than one header
// per set while a chunk header block is only 512 bytes.
const (
	chunkShift = 6
	chunkSets  = 1 << chunkShift
)

// set is one set's storage: way 0 inline and ways 1…ways−1 in rest, which
// stays nil until the set first holds two lines at once. Chunks point to
// sets rather than holding them, keeping a never-filled set at 8 bytes.
type set struct {
	way0 Line
	rest []Line
}

// Cache is a set-associative cache with true-LRU replacement, stored as
// the package comment describes.
type Cache struct {
	name    string
	ways    int
	sets    int
	setMask phys.Addr
	chunks  [][]*set   // [chunk][set-in-chunk]; inner levels nil until first Fill
	heads   slab[set]  // sets, each with its way 0
	rests   slab[Line] // blocks of ways 1…ways−1
	data    slab[byte] // line data buffers
	tick    uint64
	stats   Stats
}

// slab carves fixed-size blocks out of backing arrays that start at
// slabFirst blocks and grow 4× per refill up to max blocks: streaming fills
// touch sets in bulk, where one allocation per block dominated the figure
// benchmarks' allocation profile, while short-lived rigs that touch a
// handful of sets must not pay for (and zero) a large first array.
type slab[T any] struct {
	free []T
	n    int // blocks in the current backing array
	max  int // blocks per backing array at most
}

const (
	slabFirst = 4
	slabMax   = 64
)

// carve returns a zeroed block of size elements with capacity size, so an
// append by the holder cannot run into its neighbour.
func (s *slab[T]) carve(size int) []T {
	if len(s.free) < size {
		switch {
		case s.n == 0:
			s.n = min(slabFirst, s.max)
		case s.n < s.max:
			s.n = min(s.n*4, s.max)
		}
		s.free = make([]T, s.n*size)
	}
	b := s.free[:size:size]
	s.free = s.free[size:]
	return b
}

// New creates a cache of the given total size in bytes and associativity.
// Size must be a multiple of ways*LineSize and the set count must be a power
// of two (true of every cache in the paper's Table II and §IV).
func New(name string, sizeBytes, ways int) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache %s: size %d, ways %d", name, sizeBytes, ways)
	}
	linesTotal := sizeBytes / phys.LineSize
	if linesTotal*phys.LineSize != sizeBytes || linesTotal%ways != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d-way line sets", name, sizeBytes, ways)
	}
	sets := linesTotal / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", name, sets)
	}
	return &Cache{
		name:    name,
		ways:    ways,
		sets:    sets,
		setMask: phys.Addr(sets - 1),
		chunks:  make([][]*set, (sets+chunkSets-1)>>chunkShift),
		heads:   slab[set]{max: min(slabMax, sets)},
		rests:   slab[Line]{max: min(slabMax, sets)},
		data:    slab[byte]{max: min(slabMax, linesTotal)},
	}, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(name string, sizeBytes, ways int) *Cache {
	c, err := New(name, sizeBytes, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// SizeBytes returns the capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * phys.LineSize }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// set returns addr's set for lookup paths: nil when the set has never
// been filled, which reads as all-Invalid.
func (c *Cache) set(addr phys.Addr) *set {
	idx := int((phys.LineAddr(addr) / phys.LineSize) & c.setMask)
	ch := c.chunks[idx>>chunkShift]
	if ch == nil {
		return nil
	}
	return ch[idx&(chunkSets-1)]
}

// setAlloc returns addr's set for the fill path, allocating its chunk
// header block and carving its way-0 block on first use.
func (c *Cache) setAlloc(addr phys.Addr) *set {
	idx := int((phys.LineAddr(addr) / phys.LineSize) & c.setMask)
	ci := idx >> chunkShift
	ch := c.chunks[ci]
	if ch == nil {
		ch = make([]*set, min(chunkSets, c.sets))
		c.chunks[ci] = ch
	}
	si := idx & (chunkSets - 1)
	s := ch[si]
	if s == nil {
		s = &c.heads.carve(1)[0]
		ch[si] = s
	}
	return s
}

// find returns the valid line tagged tag in s, or nil. s may be nil.
func (s *set) find(tag phys.Addr) *Line {
	if s == nil {
		return nil
	}
	if s.way0.State != Invalid && s.way0.Tag == tag {
		return &s.way0
	}
	for i := range s.rest {
		if s.rest[i].State != Invalid && s.rest[i].Tag == tag {
			return &s.rest[i]
		}
	}
	return nil
}

// each calls fn for every materialized way, set by set in set-index order
// and way-index order within a set. Only chunks and sets that have ever
// been filled are visited, so a sparse working set scans in time
// proportional to the sets touched, not the cache capacity.
func (c *Cache) each(fn func(l *Line)) {
	for _, ch := range c.chunks {
		for _, s := range ch {
			if s == nil {
				continue
			}
			fn(&s.way0)
			for i := range s.rest {
				fn(&s.rest[i])
			}
		}
	}
}

// Lookup finds the line holding addr, updating recency and hit/miss
// statistics. It returns nil on miss.
func (c *Cache) Lookup(addr phys.Addr) *Line {
	if l := c.set(addr).find(phys.LineAddr(addr)); l != nil {
		c.tick++
		l.lru = c.tick
		c.stats.Hits++
		return l
	}
	c.stats.Misses++
	return nil
}

// Peek finds the line holding addr without touching recency or statistics —
// for cross-validation in tests and state dumps (the paper's methodology
// cross-validates presence/absence of lines in HMC, DMC and LLC, §V).
func (c *Cache) Peek(addr phys.Addr) *Line {
	return c.set(addr).find(phys.LineAddr(addr))
}

// MissRun reports how many consecutive cache lines, starting at addr's line
// and stepping one line at a time, are absent from the cache — i.e. would
// Peek nil — up to max. Like Peek it touches neither recency nor statistics;
// block transfers use it to batch runs of miss-path lines.
func (c *Cache) MissRun(addr phys.Addr, max int) int {
	tag := phys.LineAddr(addr)
	for i := 0; i < max; i++ {
		if c.set(tag).find(tag) != nil {
			return i
		}
		tag += phys.LineSize
	}
	return max
}

// Fill inserts addr with the given state (and optional data, which is
// copied), evicting the LRU victim if the set is full. It returns the victim
// when one was displaced. Filling a line that is already present updates its
// state and data in place.
func (c *Cache) Fill(addr phys.Addr, st State, data []byte) (Victim, bool) {
	if st == Invalid {
		panic("cache: Fill with Invalid state")
	}
	tag := phys.LineAddr(addr)
	s := c.setAlloc(addr)
	c.tick++
	// Already present: update in place.
	if l := s.find(tag); l != nil {
		l.State = st
		l.lru = c.tick
		c.SetData(l, data)
		return Victim{}, false
	}
	c.stats.Fills++
	// Free way? The first Invalid way in way-index order; the rest block
	// is carved when way 0 is the only materialized way and it is taken.
	l := c.freeWay(s)
	if l != nil {
		*l = Line{Tag: tag, State: st, lru: c.tick}
		c.SetData(l, data)
		return Victim{}, false
	}
	// Evict LRU: every way is materialized and valid here.
	l = &s.way0
	for i := range s.rest {
		if s.rest[i].lru < l.lru {
			l = &s.rest[i]
		}
	}
	v := Victim{Addr: l.Tag, State: l.State, Data: l.Data}
	c.stats.Evictions++
	if v.Dirty() {
		c.stats.Writebacks++
	}
	*l = Line{Tag: tag, State: st, lru: c.tick}
	c.SetData(l, data)
	return v, true
}

// freeWay returns s's first Invalid way, carving the rest block if the
// set needs its second way for the first time, or nil when every way is
// valid.
func (c *Cache) freeWay(s *set) *Line {
	if s.way0.State == Invalid {
		return &s.way0
	}
	if s.rest == nil && c.ways > 1 {
		s.rest = c.rests.carve(c.ways - 1)
	}
	for i := range s.rest {
		if s.rest[i].State == Invalid {
			return &s.rest[i]
		}
	}
	return nil
}

// SetData copies data into l's buffer, carving the buffer from the cache's
// data slab when l has none. l must be a line of c; nil data is a no-op
// (timing-only mode). The buffer stays l's until l is evicted or
// invalidated, and is never reused for another line.
func (c *Cache) SetData(l *Line, data []byte) {
	if data == nil {
		return
	}
	if len(data) != phys.LineSize {
		panic(fmt.Sprintf("cache: fill data %d bytes, want %d", len(data), phys.LineSize))
	}
	if l.Data == nil {
		l.Data = c.data.carve(phys.LineSize)
	}
	copy(l.Data, data)
}

// Invalidate drops addr from the cache, returning its pre-invalidation state
// and data (nil data in timing-only mode). The returned bool reports whether
// the line was present.
func (c *Cache) Invalidate(addr phys.Addr) (State, []byte, bool) {
	l := c.set(addr).find(phys.LineAddr(addr))
	if l == nil {
		return Invalid, nil, false
	}
	st, data := l.State, l.Data
	*l = Line{}
	c.stats.Invalidations++
	return st, data, true
}

// SetState changes the state of a resident line; it reports whether the line
// was present.
func (c *Cache) SetState(addr phys.Addr, st State) bool {
	l := c.Peek(addr)
	if l == nil {
		return false
	}
	if st == Invalid {
		_, _, ok := c.Invalidate(addr)
		return ok
	}
	l.State = st
	return true
}

// VisitValid calls fn for every valid line. fn must not mutate the cache.
func (c *Cache) VisitValid(fn func(l *Line)) {
	c.each(func(l *Line) {
		if l.State != Invalid {
			fn(l)
		}
	})
}

// FlushAll invalidates every line, calling writeback for each dirty victim
// (Modified or Owned) before dropping it. writeback may be nil.
func (c *Cache) FlushAll(writeback func(v Victim)) {
	c.each(func(l *Line) {
		if l.State != Invalid {
			c.flush(l, writeback)
		}
	})
}

// FlushRange invalidates all lines inside r (used when host software
// prepares a region for device-bias mode, §IV-B), writing back dirty lines
// through writeback (may be nil).
func (c *Cache) FlushRange(r phys.Range, writeback func(v Victim)) int {
	flushed := 0
	c.each(func(l *Line) {
		if l.State != Invalid && r.Contains(l.Tag) {
			c.flush(l, writeback)
			flushed++
		}
	})
	return flushed
}

// flush invalidates the valid line l, first passing it to writeback (if
// non-nil) when it is dirty.
func (c *Cache) flush(l *Line, writeback func(v Victim)) {
	if writeback != nil && (l.State == Modified || l.State == Owned) {
		c.stats.Writebacks++
		writeback(Victim{Addr: l.Tag, State: l.State, Data: l.Data})
	}
	c.stats.Invalidations++
	*l = Line{}
}

// CountValid returns the number of valid lines (for occupancy checks).
func (c *Cache) CountValid() int {
	n := 0
	c.VisitValid(func(*Line) { n++ })
	return n
}
