// Package ksm implements kernel samepage merging (§VI-B): a scanner that
// walks madvise(MERGEABLE)-registered pages of multiple address spaces
// (VMs), computes a 32-bit xxhash checksum per page as a change hint,
// classifies pages through the unstable and stable content-ordered trees
// using byte-by-byte comparison, and merges identical pages into a single
// CoW-protected frame.
//
// The two CPU- and memory-intensive data-plane functions — checksum and
// page comparison — run through a pluggable Backend (host CPU, PCIe device
// or CXL Type-2 device), exactly the offload split of the paper.
package ksm

import (
	"fmt"
	"sort"

	"repro/internal/kernel"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Backend performs ksm's offloadable data-plane functions.
type Backend interface {
	Name() string
	// Offloaded reports whether the data plane runs on a device (the
	// scanner then sleeps per page, yielding its core — a preemption
	// point), or on the host CPU (the scanner fills its whole quantum).
	Offloaded() bool
	// Checksum computes the page's 32-bit change hint. src is the page's
	// physical address (the device backends pull it over the interconnect).
	Checksum(page []byte, src phys.Addr, now sim.Time) ChecksumResult
	// Compare reports the index of the first differing byte between two
	// pages (len(a) when equal).
	Compare(a, b []byte, aAddr, bAddr phys.Addr, now sim.Time) CompareResult
}

// ChecksumResult is a backend checksum outcome.
type ChecksumResult struct {
	Sum           uint32
	Done          sim.Time
	HostCPU       sim.Time
	PollutedLines int
}

// CompareResult is a backend comparison outcome.
type CompareResult struct {
	FirstDiff     int
	Done          sim.Time
	HostCPU       sim.Time
	PollutedLines int
}

// item is one registered candidate page.
type item struct {
	as  *kernel.AddressSpace
	vpn uint64
}

// treeNode is a node of the unstable or stable tree, ordered by page
// content.
type treeNode struct {
	left, right *treeNode
	// frame anchors stable nodes; it is the merged CoW frame.
	frame *kernel.Frame
	// it anchors unstable nodes; the content is re-read at compare time
	// (that is what makes the tree "unstable").
	it item
}

// Stats counts scanner events, mirroring /sys/kernel/mm/ksm.
type Stats struct {
	FullScans     uint64
	PagesScanned  uint64
	ChecksumSkips uint64 // page still changing: checksum differs from last scan
	PagesMerged   uint64 // merged into an existing stable node
	NewStable     uint64 // unstable-match promotions to the stable tree
	PagesShared   uint64 // current stable frames
	PagesSharing  uint64 // current PTEs pointing at stable frames
	Compares      uint64
	HostCPU       sim.Time
	Polluted      uint64
}

// Scanner is the ksm daemon state.
type Scanner struct {
	mm      *kernel.MM
	backend Backend

	items    []item
	cursor   int
	checksum map[item]uint32

	stable   *treeNode
	unstable *treeNode

	// pageBuf and nodeBuf are the scratch pages behind the views of the
	// scanned page and of the tree node it is compared with; a view
	// aliases the store instead whenever the frame is fully written.
	pageBuf, nodeBuf []byte

	stats Stats
}

// NewScanner builds a scanner over mm with the given data-plane backend.
func NewScanner(mm *kernel.MM, backend Backend) *Scanner {
	if backend == nil {
		panic("ksm: backend required")
	}
	return &Scanner{
		mm:       mm,
		backend:  backend,
		checksum: make(map[item]uint32),
		pageBuf:  make([]byte, phys.PageSize),
		nodeBuf:  make([]byte, phys.PageSize),
	}
}

// Backend returns the active backend.
func (s *Scanner) Backend() Backend { return s.backend }

// RegisterRange marks count pages starting at startVPN in as as mergeable
// (the madvise(MADV_MERGEABLE) registration).
func (s *Scanner) RegisterRange(as *kernel.AddressSpace, startVPN uint64, count int) {
	for i := 0; i < count; i++ {
		s.items = append(s.items, item{as: as, vpn: startVPN + uint64(i)})
	}
	sort.Slice(s.items, func(i, j int) bool {
		a, b := s.items[i], s.items[j]
		if a.as.ID() != b.as.ID() {
			return a.as.ID() < b.as.ID()
		}
		return a.vpn < b.vpn
	})
}

// Registered reports how many pages are registered.
func (s *Scanner) Registered() int { return len(s.items) }

// UnregisterSpace removes every candidate page belonging to as (the
// madvise(MADV_UNMERGEABLE) / VM-teardown path). Existing merges stay in
// place — they unwind through CoW as the pages are written or unmapped.
func (s *Scanner) UnregisterSpace(as *kernel.AddressSpace) int {
	kept := s.items[:0]
	removed := 0
	for _, it := range s.items {
		if it.as == as {
			delete(s.checksum, it)
			removed++
			continue
		}
		kept = append(kept, it)
	}
	s.items = kept
	if s.cursor > len(s.items) {
		s.cursor = 0
	}
	// Unstable-tree nodes referencing the space become stale; they are
	// re-validated lazily on the next compare (readPage returns nil) and
	// the whole tree resets at the end of every full scan anyway.
	return removed
}

// Stats returns a copy of the counters with the current sharing census.
func (s *Scanner) Stats() Stats {
	st := s.stats
	st.PagesShared, st.PagesSharing = s.census(s.stable)
	return st
}

func (s *Scanner) census(n *treeNode) (shared, sharing uint64) {
	if n == nil {
		return 0, 0
	}
	ls, lg := s.census(n.left)
	rs, rg := s.census(n.right)
	return ls + rs + 1, lg + rg + uint64(n.frame.RefCount())
}

// readPage returns a view of the current content of a resident candidate
// page over scratch (see mem.Store.PageView); it returns nil for swapped
// or unmapped pages (ksm skips those).
func (s *Scanner) readPage(it item, scratch []byte) ([]byte, *kernel.PTE) {
	pte := it.as.PTE(it.vpn)
	if pte == nil || !pte.Present() {
		return nil, nil
	}
	return s.mm.Store.PageView(pte.Frame.Addr, scratch), pte
}

// frameContent returns a view of a stable frame's content over the node
// scratch page.
func (s *Scanner) frameContent(f *kernel.Frame) []byte {
	return s.mm.Store.PageView(f.Addr, s.nodeBuf)
}

// scanCtx accumulates one page scan's timing: the data-plane operations of
// a single scan are charged to the executing process in one piece (host-CPU
// work up front, then one sleep until the chained device operations
// complete), so the process's core claims stay aligned with engine time.
type scanCtx struct {
	cpu sim.Time // host-CPU work accumulated
	now sim.Time // virtual clock chaining the backend operations
}

// ScanOne advances the scan cursor by one page, performing the full §VI-B
// workflow on it. The data-plane work runs through the backend; host-CPU
// time is charged to proc. It reports whether the page was merged.
//
// The page and node contents are store views, valid only until the next
// write into their pages, and no store write happens between taking a
// view and its last use here: the backends issue only non-coherent reads
// and NC-P result pushes with nil data (the doorbell and result poll are
// timing only), so the host-LLC victims those pushes evict are earlier
// data-less pushes and write no bytes back; and merging (SharePTEs,
// freeFrame) moves PTEs and frame bookkeeping without touching the store.
func (s *Scanner) ScanOne(proc *sim.Proc) (merged bool) {
	if len(s.items) == 0 {
		return false
	}
	if s.cursor >= len(s.items) {
		s.endFullScan()
	}
	it := s.items[s.cursor]
	s.cursor++
	s.stats.PagesScanned++

	page, pte := s.readPage(it, s.pageBuf)
	if page == nil {
		return false
	}
	// Already merged into the stable tree? Nothing to do.
	if pte.Frame.KsmStable {
		return false
	}

	// Control plane (tree walk bookkeeping, rmap, cursor management).
	proc.Compute(s.mm.P.SW.KsmControlPlane)
	ctx := &scanCtx{now: proc.Now()}
	merged = s.scanPage(ctx, it, pte, page)
	proc.Compute(ctx.cpu)
	proc.AdvanceTo(ctx.now)
	return merged
}

// scanPage runs the checksum/classify/merge workflow under ctx's clocks.
func (s *Scanner) scanPage(ctx *scanCtx, it item, pte *kernel.PTE, page []byte) bool {
	// ① checksum hint: skip pages whose content is still changing.
	cres := s.backend.Checksum(page, pte.Frame.Addr, ctx.now)
	s.charge(ctx, cres.HostCPU, cres.Done, cres.PollutedLines)
	last, seen := s.checksum[it]
	s.checksum[it] = cres.Sum
	if !seen || last != cres.Sum {
		s.stats.ChecksumSkips++
		return false
	}

	// ② stable tree search.
	if node := s.searchStable(page, ctx); node != nil {
		s.mergeIntoStable(node, pte)
		s.stats.PagesMerged++
		return true
	}

	// ③ unstable tree search.
	if node, parent, left := s.searchUnstable(page, ctx); node != nil {
		if s.promote(node, parent, left, pte, page, ctx) {
			s.stats.NewStable++
			return true
		}
		return false
	}
	return false
}

func (s *Scanner) charge(ctx *scanCtx, hostCPU, done sim.Time, polluted int) {
	ctx.cpu += hostCPU
	if done > ctx.now {
		ctx.now = done
	}
	s.stats.HostCPU += hostCPU
	s.stats.Polluted += uint64(polluted)
}

// compare runs the backend comparison and returns bytes.Compare semantics.
func (s *Scanner) compare(a, b []byte, aAddr, bAddr phys.Addr, ctx *scanCtx) int {
	res := s.backend.Compare(a, b, aAddr, bAddr, ctx.now)
	s.charge(ctx, res.HostCPU, res.Done, res.PollutedLines)
	s.stats.Compares++
	if res.FirstDiff >= len(a) && res.FirstDiff >= len(b) {
		return 0
	}
	i := res.FirstDiff
	if i >= len(a) {
		return -1
	}
	if i >= len(b) {
		return 1
	}
	return int(a[i]) - int(b[i])
}

// searchStable walks the stable tree for a content match.
func (s *Scanner) searchStable(page []byte, ctx *scanCtx) *treeNode {
	n := s.stable
	for n != nil {
		c := s.compare(page, s.frameContent(n.frame), 0, n.frame.Addr, ctx)
		switch {
		case c == 0:
			return n
		case c < 0:
			n = n.left
		default:
			n = n.right
		}
	}
	return nil
}

// searchUnstable walks the unstable tree; a miss inserts the candidate.
// It returns the matching node (nil after insertion) plus its parent link
// for removal.
func (s *Scanner) searchUnstable(page []byte, ctx *scanCtx) (match, parent *treeNode, left bool) {
	if s.unstable == nil {
		s.unstable = &treeNode{it: s.items[s.cursor-1]}
		return nil, nil, false
	}
	n := s.unstable
	for {
		nodePage, nodePTE := s.readPage(n.it, s.nodeBuf)
		if nodePage == nil {
			// The tree-resident candidate vanished (swapped/unmapped);
			// compare against a zero page to keep walking
			// deterministically.
			clear(s.nodeBuf)
			nodePage = s.nodeBuf
		}
		var nodeAddr phys.Addr
		if nodePTE != nil {
			nodeAddr = nodePTE.Frame.Addr
		}
		c := s.compare(page, nodePage, 0, nodeAddr, ctx)
		if c == 0 && nodePTE != nil {
			return n, parent, left
		}
		parent = n
		if c < 0 {
			if n.left == nil {
				n.left = &treeNode{it: s.items[s.cursor-1]}
				return nil, nil, false
			}
			left = true
			n = n.left
		} else {
			if n.right == nil {
				n.right = &treeNode{it: s.items[s.cursor-1]}
				return nil, nil, false
			}
			left = false
			n = n.right
		}
	}
}

// mergeIntoStable points pte at the stable node's frame (CoW).
func (s *Scanner) mergeIntoStable(node *treeNode, pte *kernel.PTE) {
	s.mm.SharePTEs(node.frame, pte)
}

// promote merges two unstable candidates into a new stable node.
func (s *Scanner) promote(node, parent *treeNode, leftChild bool, pte *kernel.PTE, page []byte, ctx *scanCtx) bool {
	nodePTE := node.it.as.PTE(node.it.vpn)
	if nodePTE == nil || !nodePTE.Present() || nodePTE == pte {
		return false
	}
	keeper := nodePTE.Frame
	keeper.KsmStable = true
	s.mm.MarkReadOnly(keeper)
	s.mm.SharePTEs(keeper, pte)
	s.insertStable(&treeNode{frame: keeper}, ctx, page)
	// Remove the promoted node from the unstable tree by replacing it with
	// a child-merge (simple BST deletion).
	s.removeUnstable(node, parent, leftChild)
	return true
}

func (s *Scanner) insertStable(n *treeNode, ctx *scanCtx, page []byte) {
	if s.stable == nil {
		s.stable = n
		return
	}
	cur := s.stable
	for {
		c := s.compare(page, s.frameContent(cur.frame), 0, cur.frame.Addr, ctx)
		if c < 0 {
			if cur.left == nil {
				cur.left = n
				return
			}
			cur = cur.left
		} else {
			if cur.right == nil {
				cur.right = n
				return
			}
			cur = cur.right
		}
	}
}

func (s *Scanner) removeUnstable(node, parent *treeNode, leftChild bool) {
	var repl *treeNode
	switch {
	case node.left == nil:
		repl = node.right
	case node.right == nil:
		repl = node.left
	default:
		// Splice the in-order successor.
		succParent, succ := node, node.right
		for succ.left != nil {
			succParent, succ = succ, succ.left
		}
		if succParent != node {
			succParent.left = succ.right
			succ.right = node.right
		}
		succ.left = node.left
		repl = succ
	}
	switch {
	case parent == nil:
		s.unstable = repl
	case leftChild:
		parent.left = repl
	default:
		parent.right = repl
	}
}

// endFullScan wraps the cursor and resets the unstable tree, as the kernel
// does at the end of every full scan.
func (s *Scanner) endFullScan() {
	s.cursor = 0
	s.unstable = nil
	s.stats.FullScans++
}

// FullScan runs one complete pass over all registered pages.
func (s *Scanner) FullScan(proc *sim.Proc) (merged int) {
	if len(s.items) == 0 {
		return 0
	}
	if s.cursor != 0 {
		s.endFullScan()
	}
	for i := 0; i < len(s.items); i++ {
		if s.ScanOne(proc) {
			merged++
		}
	}
	return merged
}

// String summarizes the scanner for diagnostics.
func (s *Scanner) String() string {
	st := s.Stats()
	return fmt.Sprintf("ksm[%s]: scanned=%d merged=%d stable=%d sharing=%d",
		s.backend.Name(), st.PagesScanned, st.PagesMerged+st.NewStable, st.PagesShared, st.PagesSharing)
}
