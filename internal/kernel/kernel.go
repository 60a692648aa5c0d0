// Package kernel models the Linux memory-management machinery that zswap
// and ksm plug into (§VI): physical frames with reverse mappings, per-VM
// address spaces with copy-on-write page tables, an inactive-LRU list,
// watermark-driven reclaim with both the synchronous direct path and the
// asynchronous background path (kswapd), page faults with swap-in, and a
// backing swap device.
//
// Pages carry real bytes (stored in the host memory Store), so swapped-out
// data round-trips through the simulated compression backends and is
// verified on fault.
package kernel

import (
	"container/list"
	"fmt"

	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// SwapSlot identifies a swapped-out page in zswap or the backing device.
type SwapSlot uint64

// Frame is one physical page frame.
type Frame struct {
	Addr phys.Addr
	// rmap is the reverse mapping: every PTE pointing at this frame. Shared
	// (ksm-merged or forked) frames have several.
	rmap []*PTE
	// lruElem is the frame's position in the MM's active or inactive list.
	lruElem *list.Element
	// active reports which list the frame is on.
	active bool
	// referenced is the second-chance bit: set on touch, cleared by aging.
	referenced bool
	// KsmStable marks frames owned by ksm's stable tree.
	KsmStable bool
}

// RefCount reports how many PTEs map the frame.
func (f *Frame) RefCount() int { return len(f.rmap) }

// PTE is one page-table entry of an address space.
type PTE struct {
	AS  *AddressSpace
	VPN uint64
	// Frame is nil while the page is swapped out.
	Frame *Frame
	// Slot is the swap location when Frame is nil.
	Slot SwapSlot
	// Writable is cleared by CoW sharing (fork/ksm-merge).
	Writable bool
	// readahead marks a page restored speculatively; the first real access
	// clears it and counts as a readahead hit.
	readahead bool
}

// Present reports whether the page is resident.
func (p *PTE) Present() bool { return p.Frame != nil }

// SwapOps is the interface the reclaim and fault paths use to store and
// load swapped pages. zswap implements it (with per-backend offload); a
// bare BackingSwap also satisfies it for no-zswap configurations.
type SwapOps interface {
	// StorePage places page (a PageSize buffer) under slot, starting at
	// now. It returns when the store completes and how much host-CPU time
	// it consumed (the caller charges that to the executing process).
	StorePage(slot SwapSlot, page []byte, now sim.Time) (done, hostCPU sim.Time)
	// LoadPage retrieves the page stored under slot.
	LoadPage(slot SwapSlot, now sim.Time) (page []byte, done, hostCPU sim.Time)
	// DropPage releases the slot without loading it (page freed while
	// swapped).
	DropPage(slot SwapSlot)
}

// MM is the machine-wide memory manager: a fixed pool of frames carved out
// of host DRAM, watermarks, the inactive LRU and the reclaim paths.
type MM struct {
	P     *timing.Params
	Store *mem.Store

	base       phys.Addr
	totalPages int
	freeList   []phys.Addr
	// The kernel's two-list LRU: new and aged pages sit on the inactive
	// list (front = reclaim victim); pages touched twice promote to the
	// active list and must age back down before reclaim.
	inactive *list.List // of *Frame
	active   *list.List // of *Frame

	// Watermarks in free-page counts (§VI-A: page_low wakes kswapd,
	// page_high stops it).
	LowWM, HighWM int

	swap     SwapOps
	nextSlot SwapSlot

	// KswapdWake is invoked (if set) when free pages drop below LowWM.
	KswapdWake func()

	// ReadaheadPages enables swap-cluster readahead: a major fault also
	// brings in up to this many adjacent swapped pages of the same address
	// space (the kernel's page_cluster mechanism). Zero disables it.
	// Prefetch loads run off the fault's critical path.
	ReadaheadPages int

	// cowBuf is the scratch page behind breakCoW's view of the shared
	// frame, used only when that frame is not fully written.
	cowBuf []byte

	stats MMStats
}

// MMStats counts reclaim events.
type MMStats struct {
	Allocs, Frees          uint64
	SwapOuts, SwapIns      uint64
	DirectReclaims         uint64
	BackgroundReclaims     uint64
	CoWBreaks, MajorFaults uint64
	FailedAllocs           uint64
	// Two-list LRU census.
	Activations, Deactivations uint64
	SecondChances              uint64
	// ReadaheadLoads counts pages brought in speculatively; ReadaheadHits
	// counts faults avoided because readahead already restored the page.
	ReadaheadLoads, ReadaheadHits uint64
}

// NewMM carves totalPages of frame storage out of host memory starting at
// base.
func NewMM(p *timing.Params, store *mem.Store, base phys.Addr, totalPages int) *MM {
	mm := &MM{
		P:          p,
		Store:      store,
		base:       base,
		totalPages: totalPages,
		inactive:   list.New(),
		active:     list.New(),
		LowWM:      totalPages / 8,
		HighWM:     totalPages / 4,
		cowBuf:     make([]byte, phys.PageSize),
	}
	mm.freeList = make([]phys.Addr, 0, totalPages)
	for i := totalPages - 1; i >= 0; i-- {
		mm.freeList = append(mm.freeList, base+phys.Addr(i)*phys.PageSize)
	}
	return mm
}

// SetSwap installs the swap implementation (zswap or bare backing swap).
func (m *MM) SetSwap(s SwapOps) { m.swap = s }

// FreePages reports the current free-frame count.
func (m *MM) FreePages() int { return len(m.freeList) }

// ActivePages and InactivePages report the two-list LRU census.
func (m *MM) ActivePages() int { return m.active.Len() }

// InactivePages reports the inactive-list length.
func (m *MM) InactivePages() int { return m.inactive.Len() }

// TotalPages reports the pool size.
func (m *MM) TotalPages() int { return m.totalPages }

// Stats returns a copy of the counters.
func (m *MM) Stats() MMStats { return m.stats }

// BelowLow reports whether free memory is under the kswapd wake watermark.
func (m *MM) BelowLow() bool { return len(m.freeList) < m.LowWM }

// AboveHigh reports whether free memory satisfies the kswapd stop
// watermark.
func (m *MM) AboveHigh() bool { return len(m.freeList) >= m.HighWM }

// allocFrame takes a free frame, running synchronous direct reclaim when
// the pool is empty (§VI-A: "kswapd takes the synchronous direct path when
// the memory allocator fails"). The reclaim work is charged to proc.
func (m *MM) allocFrame(proc *sim.Proc) (*Frame, error) {
	if len(m.freeList) == 0 {
		m.stats.DirectReclaims++
		if ok, _ := m.reclaimOne(proc); !ok {
			m.stats.FailedAllocs++
			return nil, fmt.Errorf("kernel: out of memory and nothing reclaimable")
		}
	}
	addr := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	m.stats.Allocs++
	f := &Frame{Addr: addr}
	f.lruElem = m.inactive.PushBack(f)
	if m.BelowLow() && m.KswapdWake != nil {
		m.KswapdWake()
	}
	return f, nil
}

func (m *MM) freeFrame(f *Frame) {
	if f.lruElem != nil {
		if f.active {
			m.active.Remove(f.lruElem)
		} else {
			m.inactive.Remove(f.lruElem)
		}
		f.lruElem = nil
		f.active = false
	}
	m.freeList = append(m.freeList, f.Addr)
	m.stats.Frees++
}

// touch records a reference: the first touch sets the referenced bit; a
// second touch while still referenced promotes the frame to the active
// list (the kernel's mark_page_accessed two-step).
func (m *MM) touch(f *Frame) {
	if f.lruElem == nil {
		return
	}
	if f.active {
		f.referenced = true
		m.active.MoveToBack(f.lruElem)
		return
	}
	if f.referenced {
		m.inactive.Remove(f.lruElem)
		f.lruElem = m.active.PushBack(f)
		f.active = true
		f.referenced = false
		m.stats.Activations++
		return
	}
	f.referenced = true
	m.inactive.MoveToBack(f.lruElem)
}

// agingBatch is how many active pages one shrink pass demotes.
const agingBatch = 8

// shrinkActive demotes the oldest active pages to the inactive list,
// clearing their referenced bits (the kernel's shrink_active_list).
func (m *MM) shrinkActive() {
	for i := 0; i < agingBatch; i++ {
		e := m.active.Front()
		if e == nil {
			return
		}
		f := e.Value.(*Frame)
		m.active.Remove(e)
		f.lruElem = m.inactive.PushBack(f)
		f.active = false
		f.referenced = false
		m.stats.Deactivations++
	}
}

// ReclaimOne swaps out the least-recently-used reclaimable page, charging
// the work (control plane + compression) to proc. It returns ok=false when
// nothing can be reclaimed, and slept=true when the executing process
// yielded the CPU waiting for an offload device (the §VI-A step-3 yield) —
// a natural preemption point for the background daemon.
func (m *MM) ReclaimOne(proc *sim.Proc) (ok, slept bool) {
	return m.reclaimOne(proc)
}

func (m *MM) reclaimOne(proc *sim.Proc) (ok, slept bool) {
	// Keep the inactive list fed: when it drops below the active list's
	// size, age some active pages down (the kernel's inactive_is_low
	// balancing).
	if m.inactive.Len() < m.active.Len() {
		m.shrinkActive()
	}
	// Walk the inactive list with second chances: referenced pages rotate
	// to the tail with the bit cleared instead of being reclaimed.
	scanned := 0
	for e := m.inactive.Front(); e != nil && scanned < m.inactive.Len()+1; scanned++ {
		f := e.Value.(*Frame)
		next := e.Next()
		switch {
		case f.KsmStable || len(f.rmap) == 0:
			// Not a swap candidate.
		case f.referenced:
			f.referenced = false
			m.inactive.MoveToBack(e)
			m.stats.SecondChances++
		default:
			return true, m.swapOut(f, proc)
		}
		e = next
	}
	// Everything had a second chance or was exempt: take the first real
	// candidate regardless.
	for e := m.inactive.Front(); e != nil; e = e.Next() {
		f := e.Value.(*Frame)
		if f.KsmStable || len(f.rmap) == 0 {
			continue
		}
		return true, m.swapOut(f, proc)
	}
	// Last resort: reclaim from the active list.
	for e := m.active.Front(); e != nil; e = e.Next() {
		f := e.Value.(*Frame)
		if f.KsmStable || len(f.rmap) == 0 {
			continue
		}
		return true, m.swapOut(f, proc)
	}
	return false, false
}

// swapOut unmaps a frame from every PTE, stores its contents through the
// swap layer and frees the frame. It reports whether the process slept
// waiting on an offload device.
func (m *MM) swapOut(f *Frame, proc *sim.Proc) (slept bool) {
	if m.swap == nil {
		panic("kernel: reclaim without a swap implementation")
	}
	m.nextSlot++
	slot := m.nextSlot
	page := make([]byte, phys.PageSize)
	m.Store.Read(f.Addr, page)

	// Control plane: LRU/radix/PTE bookkeeping on the executing CPU.
	proc.Compute(m.P.SW.KswapdControlPlane)
	done, hostCPU := m.swap.StorePage(slot, page, proc.Now())
	proc.Compute(hostCPU)
	computeEnd := proc.Now()
	proc.AdvanceTo(done)
	slept = proc.Now() > computeEnd

	for _, pte := range f.rmap {
		pte.Frame = nil
		pte.Slot = slot
	}
	f.rmap = nil
	m.freeFrame(f)
	m.stats.SwapOuts++
	return slept
}

// AddressSpace is one process's (or VM's) page table.
type AddressSpace struct {
	mm   *MM
	id   int
	ptes map[uint64]*PTE
}

// NewAddressSpace returns an empty address space.
func (m *MM) NewAddressSpace(id int) *AddressSpace {
	return &AddressSpace{mm: m, id: id, ptes: make(map[uint64]*PTE)}
}

// ID returns the address-space identifier.
func (a *AddressSpace) ID() int { return a.id }

// MM returns the owning memory manager.
func (a *AddressSpace) MM() *MM { return a.mm }

// PTE returns the entry for vpn, or nil if unmapped.
func (a *AddressSpace) PTE(vpn uint64) *PTE { return a.ptes[vpn] }

// Mapped reports how many pages the space maps.
func (a *AddressSpace) Mapped() int { return len(a.ptes) }

// VPNs visits every mapped vpn.
func (a *AddressSpace) VPNs(fn func(vpn uint64, pte *PTE)) {
	for vpn, pte := range a.ptes {
		fn(vpn, pte)
	}
}

// Map installs data (PageSize bytes; nil for a zero page) at vpn,
// allocating a frame. Allocation may trigger synchronous direct reclaim
// charged to proc.
func (a *AddressSpace) Map(vpn uint64, data []byte, proc *sim.Proc) error {
	if _, exists := a.ptes[vpn]; exists {
		return fmt.Errorf("kernel: vpn %#x already mapped in as%d", vpn, a.id)
	}
	f, err := a.mm.allocFrame(proc)
	if err != nil {
		return err
	}
	pte := &PTE{AS: a, VPN: vpn, Frame: f, Writable: true}
	f.rmap = append(f.rmap, pte)
	a.ptes[vpn] = pte
	if data != nil {
		a.mm.Store.Write(f.Addr, data)
	} else {
		a.mm.Store.Write(f.Addr, make([]byte, phys.PageSize))
	}
	return nil
}

// Unmap releases vpn, freeing the frame when the last mapping drops.
func (a *AddressSpace) Unmap(vpn uint64) {
	pte, ok := a.ptes[vpn]
	if !ok {
		return
	}
	delete(a.ptes, vpn)
	if pte.Frame != nil {
		pte.Frame.dropMapping(pte)
		if pte.Frame.RefCount() == 0 && !pte.Frame.KsmStable {
			a.mm.freeFrame(pte.Frame)
		}
	} else if a.mm.swap != nil {
		// Last reference to a swapped page: drop the slot if nobody else
		// shares it.
		shared := false
		for _, other := range a.ptes {
			if other.Frame == nil && other.Slot == pte.Slot {
				shared = true
				break
			}
		}
		if !shared {
			a.mm.swap.DropPage(pte.Slot)
		}
	}
}

func (f *Frame) dropMapping(pte *PTE) {
	for i, p := range f.rmap {
		if p == pte {
			f.rmap = append(f.rmap[:i], f.rmap[i+1:]...)
			return
		}
	}
}

// Read returns the PageSize bytes at vpn, faulting the page in if swapped.
// The fault work (control plane + decompression) is charged to proc.
func (a *AddressSpace) Read(vpn uint64, proc *sim.Proc) ([]byte, error) {
	page := make([]byte, phys.PageSize)
	if err := a.ReadInto(vpn, page, proc); err != nil {
		return nil, err
	}
	return page, nil
}

// ReadInto is Read into the caller's PageSize-byte dst, so a caller that
// reads page after page reuses one buffer.
func (a *AddressSpace) ReadInto(vpn uint64, dst []byte, proc *sim.Proc) error {
	pte, ok := a.ptes[vpn]
	if !ok {
		return fmt.Errorf("kernel: read of unmapped vpn %#x", vpn)
	}
	if err := a.faultIn(pte, proc); err != nil {
		return err
	}
	a.mm.touch(pte.Frame)
	a.mm.Store.Read(pte.Frame.Addr, dst)
	return nil
}

// Write stores data at vpn, faulting in and breaking CoW as needed.
func (a *AddressSpace) Write(vpn uint64, data []byte, proc *sim.Proc) error {
	pte, ok := a.ptes[vpn]
	if !ok {
		return fmt.Errorf("kernel: write to unmapped vpn %#x", vpn)
	}
	if err := a.faultIn(pte, proc); err != nil {
		return err
	}
	if !pte.Writable {
		if err := a.breakCoW(pte, proc); err != nil {
			return err
		}
	}
	a.mm.touch(pte.Frame)
	a.mm.Store.Write(pte.Frame.Addr, data)
	return nil
}

// faultIn brings a swapped page back: a major fault through the swap layer.
func (a *AddressSpace) faultIn(pte *PTE, proc *sim.Proc) error {
	if pte.Present() {
		return nil
	}
	if pte.readahead {
		// Readahead already restored this page off the critical path; the
		// fault becomes a cheap swap-cache hit.
		pte.readahead = false
		a.mm.stats.ReadaheadHits++
	}
	m := a.mm
	m.stats.MajorFaults++
	proc.Compute(m.P.SW.PageFaultBase)
	page, done, hostCPU := m.swap.LoadPage(pte.Slot, proc.Now())
	proc.Compute(hostCPU)
	proc.AdvanceTo(done)
	f, err := m.allocFrame(proc)
	if err != nil {
		return err
	}
	m.Store.Write(f.Addr, page)
	slot := pte.Slot
	// Re-point every PTE sharing the slot (shared swapped pages).
	for _, other := range a.ptes {
		if !other.Present() && other.Slot == slot {
			other.Frame = f
			f.rmap = append(f.rmap, other)
		}
	}
	if !pte.Present() { // pte may belong to another AS sharing the slot
		pte.Frame = f
		f.rmap = append(f.rmap, pte)
	}
	m.swap.DropPage(slot)
	m.stats.SwapIns++

	// Swap-cluster readahead: speculatively restore adjacent swapped pages
	// off the critical path (their load latency is not charged to proc).
	if m.ReadaheadPages > 0 && len(m.freeList) > m.LowWM {
		a.readahead(pte.VPN, proc)
	}
	return nil
}

// readahead restores up to MM.ReadaheadPages swapped neighbors of vpn.
func (a *AddressSpace) readahead(vpn uint64, proc *sim.Proc) {
	m := a.mm
	for i := 1; i <= m.ReadaheadPages; i++ {
		if len(m.freeList) <= m.LowWM {
			return // never prefetch into memory pressure
		}
		next, ok := a.ptes[vpn+uint64(i)]
		if !ok || next.Present() {
			continue
		}
		page, _, _ := m.swap.LoadPage(next.Slot, proc.Now())
		f, err := m.allocFrame(proc)
		if err != nil {
			return
		}
		m.Store.Write(f.Addr, page)
		slot := next.Slot
		next.Frame = f
		next.readahead = true
		f.rmap = append(f.rmap, next)
		m.swap.DropPage(slot)
		m.stats.ReadaheadLoads++
	}
}

// breakCoW gives pte a private writable copy of its shared frame.
func (a *AddressSpace) breakCoW(pte *PTE, proc *sim.Proc) error {
	m := a.mm
	m.stats.CoWBreaks++
	old := pte.Frame
	proc.Compute(m.P.SW.PageFaultBase)
	f, err := m.allocFrame(proc)
	if err != nil {
		return err
	}
	// The view of old stays valid across the write: it goes to f's page.
	m.Store.Write(f.Addr, m.Store.PageView(old.Addr, m.cowBuf))
	old.dropMapping(pte)
	if old.RefCount() == 0 && !old.KsmStable {
		m.freeFrame(old)
	}
	pte.Frame = f
	pte.Writable = true
	f.rmap = append(f.rmap, pte)
	return nil
}

// SharePTEs repoints victim's PTE at keeper's frame read-only — ksm's merge
// primitive. The victim frame is freed when its last mapping leaves.
func (m *MM) SharePTEs(keeper *Frame, victimPTE *PTE) {
	old := victimPTE.Frame
	old.dropMapping(victimPTE)
	victimPTE.Frame = keeper
	victimPTE.Writable = false
	keeper.rmap = append(keeper.rmap, victimPTE)
	if old.RefCount() == 0 {
		m.freeFrame(old)
	}
}

// MarkReadOnly clears the writable bit on every mapping of a frame (the
// stable-tree insertion step of ksm).
func (m *MM) MarkReadOnly(f *Frame) {
	for _, pte := range f.rmap {
		pte.Writable = false
	}
}
