// Package mem models the memory substrate: sparse byte-accurate backing
// stores held in page frames, DRAM controllers with bounded posted-write
// queues, and the system's physical address map.
//
// The write-queue model reproduces the §V-A observation that 16 D2H writes
// (1 KB) fit into the 8 controllers' 32-entry × 64 B write queues and
// complete at queue speed, while longer write bursts collapse to DRAM drain
// bandwidth.
package mem

import (
	"fmt"
	"math/bits"

	"repro/internal/phys"
	"repro/internal/sim"
)

// Store is a sparse, byte-accurate backing store. Unwritten bytes read as
// zero. Store is purely functional (no timing).
//
// Memory is held in page frames: a pointer-free index maps each touched
// page to a frame, and a frame keeps a 64-bit mask of the lines written
// so far plus exactly those lines, packed in line order, so line i of a
// page sits at slot popcount(written & (1<<i - 1)). A page the kernel
// models move whole is one dense 4 KiB buffer that reads and writes in a
// single copy, while a page touched at one line costs one line, not a
// page. Frame buffers are carved from shared slabs rather than allocated
// one by one.
type Store struct {
	name   string
	index  map[phys.Addr]int32 // page base -> position in frames
	frames []frame
	lines  int // distinct lines written
	// lastPage/lastFrame cache the most recent index hit, so runs of
	// accesses to one page skip the map; lastFrame is -1 when empty.
	lastPage  phys.Addr
	lastFrame int32
	// slab is the unused tail of the chunk frame buffers are carved
	// from, so that a line or page costs no heap object of its own.
	slab []byte
}

// frame is one page's written lines, packed in line order.
type frame struct {
	written uint64
	data    []byte // popcount(written) lines
}

// fullPage is the written mask of a page whose every line is stored; its
// data is then the dense page.
const fullPage = ^uint64(0)

// NewStore returns an empty store.
func NewStore(name string) *Store {
	return &Store{name: name, index: make(map[phys.Addr]int32), lastFrame: -1}
}

// Name returns the store's diagnostic name.
func (s *Store) Name() string { return s.name }

// ReadLine copies the 64-byte line containing addr into dst (which must be
// LineSize bytes). Absent lines read as zero.
func (s *Store) ReadLine(addr phys.Addr, dst []byte) {
	if len(dst) != phys.LineSize {
		panic(fmt.Sprintf("mem: ReadLine dst %d bytes", len(dst)))
	}
	if l := s.PeekLine(addr); l != nil {
		copy(dst, l)
	} else {
		clear(dst)
	}
}

// PeekLine returns the stored line, or nil if it was never written (a zero
// line). The slice aliases the store: it is valid until the next write
// into the same page.
func (s *Store) PeekLine(addr phys.Addr) []byte {
	f := s.frame(phys.PageAddr(addr))
	if f == nil {
		return nil
	}
	return s.line(f, lineIndex(addr))
}

// PageView returns the PageSize bytes of the page based at page without
// copying when it can: for a fully written frame the result aliases the
// store, and like PeekLine's it is valid until the next write into that
// page. Otherwise the page is read into scratch (PageSize bytes), which is
// returned. Callers must not write through the view.
func (s *Store) PageView(page phys.Addr, scratch []byte) []byte {
	if len(scratch) != phys.PageSize || phys.PageAddr(page) != page {
		panic(fmt.Sprintf("mem: PageView(%v) with %d-byte scratch", page, len(scratch)))
	}
	if f := s.frame(page); f != nil && f.written == fullPage {
		return f.data[:phys.PageSize:phys.PageSize]
	}
	s.Read(page, scratch)
	return scratch
}

// WriteLine stores the 64-byte line containing addr.
func (s *Store) WriteLine(addr phys.Addr, src []byte) {
	if len(src) != phys.LineSize {
		panic(fmt.Sprintf("mem: WriteLine src %d bytes", len(src)))
	}
	copy(s.lineForWrite(s.frameForWrite(phys.PageAddr(addr)), lineIndex(addr)), src)
}

// Read copies len(dst) bytes starting at addr into dst; the range may span
// lines and pages.
func (s *Store) Read(addr phys.Addr, dst []byte) {
	for len(dst) > 0 {
		page := phys.PageAddr(addr)
		off := int(addr - page)
		n := min(len(dst), phys.PageSize-off)
		f := s.frame(page)
		switch {
		case f == nil:
			clear(dst[:n])
		case f.written == fullPage:
			copy(dst[:n], f.data[off:])
		default:
			for i := 0; i < n; {
				lo := phys.LineOffset(addr + phys.Addr(i))
				m := min(n-i, phys.LineSize-lo)
				if l := s.line(f, (off+i)/phys.LineSize); l != nil {
					copy(dst[i:i+m], l[lo:])
				} else {
					clear(dst[i : i+m])
				}
				i += m
			}
		}
		addr += phys.Addr(n)
		dst = dst[n:]
	}
}

// Write copies src into the store starting at addr; the range may span
// lines and pages. Bytes of a partly covered line that were never written
// stay zero.
func (s *Store) Write(addr phys.Addr, src []byte) {
	for len(src) > 0 {
		page := phys.PageAddr(addr)
		off := int(addr - page)
		n := min(len(src), phys.PageSize-off)
		f := s.frameForWrite(page)
		switch {
		case n == phys.PageSize:
			if f.written != fullPage {
				s.lines += phys.LinesPerPage - bits.OnesCount64(f.written)
				if cap(f.data) < phys.PageSize {
					f.data = s.carve(phys.PageSize)
				}
				f.written, f.data = fullPage, f.data[:phys.PageSize]
			}
			copy(f.data, src)
		case f.written == fullPage:
			copy(f.data[off:], src[:n])
		default:
			for i := 0; i < n; {
				lo := phys.LineOffset(addr + phys.Addr(i))
				m := min(n-i, phys.LineSize-lo)
				copy(s.lineForWrite(f, (off+i)/phys.LineSize)[lo:], src[i:i+m])
				i += m
			}
		}
		addr += phys.Addr(n)
		src = src[n:]
	}
}

// LinesWritten reports how many distinct lines have ever been written.
func (s *Store) LinesWritten() int { return s.lines }

// lineIndex is the index of addr's line within its page.
func lineIndex(addr phys.Addr) int {
	return int(addr&(phys.PageSize-1)) / phys.LineSize
}

// frame returns the frame of the page based at page, or nil if no line of
// it was ever written.
func (s *Store) frame(page phys.Addr) *frame {
	if s.lastFrame >= 0 && s.lastPage == page {
		return &s.frames[s.lastFrame]
	}
	i, ok := s.index[page]
	if !ok {
		return nil
	}
	s.lastPage, s.lastFrame = page, i
	return &s.frames[i]
}

// frameForWrite returns the frame of the page based at page, adding an
// empty one if the page is new. The pointer is valid until the next frame
// is added.
func (s *Store) frameForWrite(page phys.Addr) *frame {
	if f := s.frame(page); f != nil {
		return f
	}
	i := int32(len(s.frames))
	s.frames = append(s.frames, frame{})
	s.index[page] = i
	s.lastPage, s.lastFrame = page, i
	return &s.frames[i]
}

// line returns line i of f, or nil if it was never written.
func (s *Store) line(f *frame, i int) []byte {
	bit := uint64(1) << i
	if f.written&bit == 0 {
		return nil
	}
	at := bits.OnesCount64(f.written&(bit-1)) * phys.LineSize
	return f.data[at : at+phys.LineSize : at+phys.LineSize]
}

// lineForWrite returns line i of f, inserting a zero line at its packed
// slot if it was never written.
func (s *Store) lineForWrite(f *frame, i int) []byte {
	bit := uint64(1) << i
	at := bits.OnesCount64(f.written&(bit-1)) * phys.LineSize
	if f.written&bit == 0 {
		n := len(f.data)
		if n == cap(f.data) {
			grown := s.carve(max(2*n, phys.LineSize))
			copy(grown, f.data)
			f.data = grown
		}
		f.data = f.data[:n+phys.LineSize]
		copy(f.data[at+phys.LineSize:], f.data[at:])
		clear(f.data[at : at+phys.LineSize])
		f.written |= bit
		s.lines++
	}
	return f.data[at : at+phys.LineSize : at+phys.LineSize]
}

// maxSlab caps the chunks frame buffers are carved from.
const maxSlab = 64 << 10

// carve returns a zeroed n-byte buffer (n <= maxSlab) from the current
// slab. A new slab is as large as the store's data so far, between n and
// maxSlab bytes, so a store holding a few lines allocates little.
func (s *Store) carve(n int) []byte {
	if len(s.slab) < n {
		s.slab = make([]byte, min(max(n, s.lines*phys.LineSize), maxSlab))
	}
	b := s.slab[:n:n]
	s.slab = s.slab[n:]
	return b
}

// Controller models one DRAM channel's posted-write machinery: a bounded
// write queue (32 × 64 B entries in the paper's Xeon) absorbing writes at
// queue speed, drained to DRAM at the channel's random-single-line rate.
type Controller struct {
	name  string
	queue *sim.Credits
	drain *sim.Resource
	// drainPerLine is the per-line drain service time.
	drainPerLine sim.Time
	writes       uint64
}

// NewController builds a channel controller with the given write-queue depth
// and per-line drain time.
func NewController(name string, queueEntries int, drainPerLine sim.Time) *Controller {
	return &Controller{
		name:         name,
		queue:        sim.NewCredits(name+".wq", queueEntries),
		drain:        sim.NewResource(name + ".drain"),
		drainPerLine: drainPerLine,
	}
}

// PostWrite admits one 64-byte posted write arriving at now. The returned
// time is when the write occupies a queue slot — the moment a store is
// architecturally complete for the issuing agent (§V-A: "write accesses are
// completed as soon as they enter the write queues"). If the queue is full,
// admission stalls until a slot drains.
func (c *Controller) PostWrite(now sim.Time) sim.Time {
	admitted := c.queue.Acquire(now)
	start := c.drain.Claim(admitted, c.drainPerLine)
	c.queue.Complete(start + c.drainPerLine)
	c.writes++
	return admitted
}

// Writes reports how many writes the controller has admitted.
func (c *Controller) Writes() uint64 { return c.writes }

// Reset restores the controller to idle.
func (c *Controller) Reset() {
	c.queue.Reset()
	c.drain.Reset()
	c.writes = 0
}

// Channels is a line-interleaved group of controllers, as a socket's 8
// DDR5 channels (4 under sub-NUMA clustering) or the device's 2 DDR4
// channels.
type Channels struct {
	ctrls []*Controller
}

// NewChannels builds n interleaved controllers.
func NewChannels(name string, n, queueEntries int, drainPerLine sim.Time) *Channels {
	if n <= 0 {
		panic("mem: channel count must be positive")
	}
	cs := make([]*Controller, n)
	for i := range cs {
		cs[i] = NewController(fmt.Sprintf("%s[%d]", name, i), queueEntries, drainPerLine)
	}
	return &Channels{ctrls: cs}
}

// N reports the channel count.
func (c *Channels) N() int { return len(c.ctrls) }

// For returns the controller owning addr (line interleaving).
func (c *Channels) For(addr phys.Addr) *Controller {
	return c.ctrls[int(phys.LineAddr(addr)/phys.LineSize)%len(c.ctrls)]
}

// PostWrite routes a posted write to the owning channel.
func (c *Channels) PostWrite(addr phys.Addr, now sim.Time) sim.Time {
	return c.For(addr).PostWrite(now)
}

// TotalWrites sums admitted writes across channels.
func (c *Channels) TotalWrites() uint64 {
	var n uint64
	for _, ct := range c.ctrls {
		n += ct.Writes()
	}
	return n
}

// Reset restores all channels to idle.
func (c *Channels) Reset() {
	for _, ct := range c.ctrls {
		ct.Reset()
	}
}
