package service

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/xxhash"
)

// Deterministic result cache. The runner guarantees that a (config, seed)
// pair renders byte-identical output on every run, so a rendered response
// body is a pure function of its canonical request key and can be served
// from memory forever; the only eviction pressure is capacity. The cache
// is a size-bounded (total body+key bytes) LRU with hit/miss/eviction
// counters for /metrics.

// cached is one stored response.
type cached struct {
	key         string
	body        []byte // immutable once stored; callers must not modify
	contentType string
	status      int
}

func (c cached) cost() int64 { return int64(len(c.key) + len(c.body)) }

// cacheStats is a point-in-time counter snapshot of the LRU.
type cacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// hitRate is hits over lookups, or 0 before the first lookup.
func (s cacheStats) hitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// resultCache is the LRU store.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used; values are cached
	items    map[string]*list.Element
	stats    cacheStats
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the stored response for key, bumping its recency.
func (c *resultCache) get(key string) (cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return cached{}, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(cached), true
}

// put stores a response, evicting least-recently-used entries until the
// byte bound holds. A response larger than the whole cache is not stored.
func (c *resultCache) put(v cached) {
	if v.cost() > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[v.key]; ok {
		// Determinism makes a same-key overwrite a no-op byte-wise;
		// refresh recency and keep the stored copy.
		c.ll.MoveToFront(el)
		return
	}
	c.items[v.key] = c.ll.PushFront(v)
	c.bytes += v.cost()
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		old := el.Value.(cached)
		c.ll.Remove(el)
		delete(c.items, old.key)
		c.bytes -= old.cost()
		c.stats.Evictions++
	}
}

// snapshot returns the counters with current occupancy filled in.
func (c *resultCache) snapshot() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// keyHash renders a short stable digest of a canonical key for response
// headers and logs (the full key can be long).
func keyHash(key string) string {
	return fmt.Sprintf("%016x", xxhash.Sum64([]byte(key), 0))
}

// flightGroup coalesces concurrent identical requests: determinism means
// every caller with the same canonical key wants the same bytes, so only
// the first (the leader) runs the simulation; followers wait for the
// leader's response without consuming admission slots.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done    chan struct{}
	waiters int // followers coalesced onto this call (under flightGroup.mu)
	resp    cached
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once per key among concurrent callers. The bool reports
// whether this caller was the leader. A waiting follower whose ctx ends
// first returns its ctx error without cancelling the leader (and gives up
// its waiter slot, so the gauge never counts ghosts).
//
// The leader's cleanup is deferred: if fn panics, the map entry is still
// removed and the done channel still closed, so followers wake with
// errLeaderPanicked instead of hanging forever on a poisoned key, and the
// next request for the key elects a fresh leader. The panic itself keeps
// propagating to the caller.
func (g *flightGroup) do(key string, wait <-chan struct{}, fn func() (cached, error)) (cached, error, bool) {
	g.mu.Lock()
	if call, ok := g.calls[key]; ok {
		call.waiters++
		g.mu.Unlock()
		select {
		case <-call.done:
			return call.resp, call.err, false
		case <-wait:
			g.mu.Lock()
			call.waiters--
			g.mu.Unlock()
			return cached{}, errFollowerGone, false
		}
	}
	call := &flightCall{done: make(chan struct{})}
	g.calls[key] = call
	g.mu.Unlock()

	completed := false
	defer func() {
		if !completed {
			call.resp, call.err = cached{}, errLeaderPanicked
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(call.done)
	}()
	call.resp, call.err = fn()
	completed = true
	return call.resp, call.err, true
}

// waiters reports how many followers are currently coalesced behind
// in-flight leaders — the /metrics gauge that would have exposed a waiter
// leak.
func (g *flightGroup) waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, call := range g.calls {
		n += call.waiters
	}
	return n
}

// errFollowerGone marks a coalesced follower that stopped waiting.
var errFollowerGone = fmt.Errorf("service: request abandoned while coalesced")

// errLeaderPanicked is what followers receive when their leader's run
// panicked out of flightGroup.do.
var errLeaderPanicked = fmt.Errorf("service: coalesced leader panicked")
