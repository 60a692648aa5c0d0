package cache

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/phys"
)

// refLine is one way of refCache.
type refLine struct {
	tag   phys.Addr
	state State
	data  []byte
	lru   uint64
	gen   uint64 // install counter: changes whenever a new line takes the way
}

// refCache is the dense reference model: every set holds all its ways
// from construction, in one set-major array, with a global recency tick.
// It is the straightforward form of the algorithm Cache implements.
type refCache struct {
	ways, sets int
	lines      []refLine
	tick, gen  uint64
	stats      Stats
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{ways: ways, sets: sets, lines: make([]refLine, sets*ways)}
}

func (r *refCache) set(addr phys.Addr) []refLine {
	idx := int(phys.LineAddr(addr)/phys.LineSize) & (r.sets - 1)
	return r.lines[idx*r.ways : (idx+1)*r.ways]
}

func (r *refCache) find(addr phys.Addr) *refLine {
	tag := phys.LineAddr(addr)
	s := r.set(addr)
	for i := range s {
		if s[i].state != Invalid && s[i].tag == tag {
			return &s[i]
		}
	}
	return nil
}

func (r *refCache) setData(l *refLine, data []byte) {
	if data != nil {
		l.data = append([]byte(nil), data...)
	}
}

func (r *refCache) lookup(addr phys.Addr) *refLine {
	l := r.find(addr)
	if l == nil {
		r.stats.Misses++
		return nil
	}
	r.tick++
	l.lru = r.tick
	r.stats.Hits++
	return l
}

func (r *refCache) fill(addr phys.Addr, st State, data []byte) (refLine, bool) {
	r.tick++
	if l := r.find(addr); l != nil {
		l.state, l.lru = st, r.tick
		r.setData(l, data)
		return refLine{}, false
	}
	r.stats.Fills++
	s := r.set(addr)
	w := -1
	for i := range s {
		if s[i].state == Invalid {
			w = i
			break
		}
	}
	var v refLine
	evicted := w < 0
	if evicted {
		w = 0
		for i := 1; i < len(s); i++ {
			if s[i].lru < s[w].lru {
				w = i
			}
		}
		v = s[w]
		r.stats.Evictions++
		if v.state == Modified || v.state == Owned {
			r.stats.Writebacks++
		}
	}
	r.gen++
	s[w] = refLine{tag: phys.LineAddr(addr), state: st, lru: r.tick, gen: r.gen}
	r.setData(&s[w], data)
	return v, evicted
}

func (r *refCache) invalidate(addr phys.Addr) (refLine, bool) {
	l := r.find(addr)
	if l == nil {
		return refLine{}, false
	}
	old := *l
	*l = refLine{}
	r.stats.Invalidations++
	return old, true
}

// flush invalidates every valid line that keep selects, in way-index
// order, returning the dirty ones a non-nil writeback would receive.
func (r *refCache) flush(keep func(phys.Addr) bool, writeback bool) (dirty []refLine, n int) {
	for i := range r.lines {
		l := &r.lines[i]
		if l.state == Invalid || !keep(l.tag) {
			continue
		}
		if writeback && (l.state == Modified || l.state == Owned) {
			r.stats.Writebacks++
			dirty = append(dirty, *l)
		}
		r.stats.Invalidations++
		*l = refLine{}
		n++
	}
	return dirty, n
}

// fuzzGeometry decodes a cache shape small enough for tags to collide,
// plus a two-chunk shape for the chunk boundary.
func fuzzGeometry(b byte) (sets, ways int) {
	ways = []int{1, 2, 3, 4, 16}[int(b)%5]
	sets = []int{1, 2, 8, 128}[int(b/5)%4]
	return sets, ways
}

// keptBuf is a data slice the cache handed out (a victim's, an
// invalidated line's or a writeback's) with the bytes it held then: the
// cache must never write into it again.
type keptBuf struct {
	buf, want []byte
}

// FuzzCache drives Cache and refCache through the same decoded operation
// sequence and checks every return value, evicted and written-back line,
// the statistics, the valid-line count and the VisitValid order after
// each step. It also checks that a resident line's *Line never moves and
// that a buffer handed out with a departing line is never reused.
//
// Input: byte 0 picks the geometry; then 4 bytes per operation
// (op, a, b, x). a and b pick the address — a set and one of ways+2 tags
// colliding in it — and b's top bit a data or a timing-only fill; x gives
// the in-line offset, a state, a count or the data pattern.
func FuzzCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		sets, ways := fuzzGeometry(in[0])
		c := MustNew("fuzz", sets*ways*phys.LineSize, ways)
		ref := newRefCache(sets, ways)
		ptrs := map[phys.Addr]struct {
			l   *Line
			gen uint64
		}{}
		var kept []keptBuf
		keep := func(b []byte) {
			if b != nil && len(kept) < 256 {
				kept = append(kept, keptBuf{b, append([]byte(nil), b...)})
			}
		}
		// checkLine compares a returned line with the model's and pins the
		// pointer of a line that has not been replaced since it was seen.
		checkLine := func(step int, what string, got *Line, want *refLine) {
			t.Helper()
			if (got == nil) != (want == nil) {
				t.Fatalf("step %d %s: got %+v, want %+v", step, what, got, want)
			}
			if got == nil {
				return
			}
			if got.Tag != want.tag || got.State != want.state || !sameData(got.Data, want.data) {
				t.Fatalf("step %d %s: line %v/%v/%x, want %v/%v/%x", step, what,
					got.Tag, got.State, got.Data, want.tag, want.state, want.data)
			}
			if p, ok := ptrs[got.Tag]; ok && p.gen == want.gen && p.l != got {
				t.Fatalf("step %d %s: resident line %v moved", step, what, got.Tag)
			}
			ptrs[got.Tag] = struct {
				l   *Line
				gen uint64
			}{got, want.gen}
		}
		checkDirty := func(step int, what string, got []Victim, want []refLine) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("step %d %s: %d writebacks, want %d", step, what, len(got), len(want))
			}
			for i := range got {
				if got[i].Addr != want[i].tag || got[i].State != want[i].state || !sameData(got[i].Data, want[i].data) {
					t.Fatalf("step %d %s: writeback %d = %v/%v, want %v/%v", step, what, i,
						got[i].Addr, got[i].State, want[i].tag, want[i].state)
				}
				keep(got[i].Data)
			}
		}

		ops := in[1:]
		for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
			op, a, b, x := ops[0], ops[1], ops[2], ops[3]
			line := phys.Addr(int(a)%sets + sets*(int(b&0x7f)%(ways+2)))
			addr := line*phys.LineSize + phys.Addr(x&63)
			var data []byte
			if b&0x80 != 0 {
				data = make([]byte, phys.LineSize)
				for i := range data {
					data[i] = x ^ byte(i) ^ byte(step)
				}
			}
			switch op % 9 {
			case 0:
				st := State(1 + int(x)%4)
				v, ev := c.Fill(addr, st, data)
				rv, rev := ref.fill(addr, st, data)
				if ev != rev || v.Addr != rv.tag || v.State != rv.state || !sameData(v.Data, rv.data) {
					t.Fatalf("step %d Fill(%v, %v): victim %v/%v/%x evicted=%v, want %v/%v/%x evicted=%v",
						step, addr, st, v.Addr, v.State, v.Data, ev, rv.tag, rv.state, rv.data, rev)
				}
				keep(v.Data)
				checkLine(step, "Peek after Fill", c.Peek(addr), ref.find(addr))
			case 1:
				checkLine(step, "Lookup", c.Lookup(addr), ref.lookup(addr))
			case 2:
				checkLine(step, "Peek", c.Peek(addr), ref.find(addr))
			case 3:
				st, d, ok := c.Invalidate(addr)
				rl, rok := ref.invalidate(addr)
				if ok != rok || st != rl.state || !sameData(d, rl.data) {
					t.Fatalf("step %d Invalidate(%v) = %v/%x/%v, want %v/%x/%v", step, addr, st, d, ok, rl.state, rl.data, rok)
				}
				keep(d)
			case 4:
				st := State(int(x) % 5)
				rl := ref.find(addr)
				want := rl != nil
				if rl != nil {
					if st == Invalid {
						ref.invalidate(addr)
					} else {
						rl.state = st
					}
				}
				if got := c.SetState(addr, st); got != want {
					t.Fatalf("step %d SetState(%v, %v) = %v, want %v", step, addr, st, got, want)
				}
			case 5:
				max := int(x) % 20
				want := max
				for i := 0; i < max; i++ {
					if ref.find(phys.LineAddr(addr)+phys.Addr(i)*phys.LineSize) != nil {
						want = i
						break
					}
				}
				if got := c.MissRun(addr, max); got != want {
					t.Fatalf("step %d MissRun(%v, %d) = %d, want %d", step, addr, max, got, want)
				}
			case 6:
				r := phys.Range{Base: addr, Size: uint64(x) * 8}
				var got []Victim
				var wb func(Victim)
				if b&1 == 0 {
					wb = func(v Victim) { got = append(got, v) }
				}
				n := c.FlushRange(r, wb)
				want, rn := ref.flush(r.Contains, wb != nil)
				if n != rn {
					t.Fatalf("step %d FlushRange(%+v) = %d, want %d", step, r, n, rn)
				}
				checkDirty(step, "FlushRange", got, want)
			case 7:
				var got []Victim
				var wb func(Victim)
				if b&1 == 0 {
					wb = func(v Victim) { got = append(got, v) }
				}
				c.FlushAll(wb)
				want, _ := ref.flush(func(phys.Addr) bool { return true }, wb != nil)
				checkDirty(step, "FlushAll", got, want)
			case 8:
				// The host and device write hits through the returned line.
				l, rl := c.Peek(addr), ref.find(addr)
				checkLine(step, "Peek before SetData", l, rl)
				if l != nil && data != nil {
					c.SetData(l, data)
					ref.setData(rl, data)
				}
			}

			if c.Stats() != ref.stats {
				t.Fatalf("step %d: stats %+v, want %+v", step, c.Stats(), ref.stats)
			}
			var visit []string
			c.VisitValid(func(l *Line) { visit = append(visit, fmt.Sprintf("%v/%v/%x", l.Tag, l.State, l.Data)) })
			var want []string
			for _, l := range ref.lines {
				if l.state != Invalid {
					want = append(want, fmt.Sprintf("%v/%v/%x", l.tag, l.state, l.data))
				}
			}
			if fmt.Sprint(visit) != fmt.Sprint(want) {
				t.Fatalf("step %d: VisitValid %v, want %v", step, visit, want)
			}
			if n := c.CountValid(); n != len(want) {
				t.Fatalf("step %d: CountValid = %d, want %d", step, n, len(want))
			}
			for _, k := range kept {
				if !bytes.Equal(k.buf, k.want) {
					t.Fatalf("step %d: a departed line's buffer was rewritten: %x, want %x", step, k.buf, k.want)
				}
			}
		}
	})
}

// sameData reports whether a and b hold the same bytes, nil only matching
// nil.
func sameData(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}
