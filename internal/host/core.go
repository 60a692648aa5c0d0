package host

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/interconnect"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Core models one CPU core's memory interface: issue serialization, credit
// pools for outstanding misses, and the access paths to local memory,
// remote-socket memory (over UPI) and CXL device memory.
type Core struct {
	h  *Host
	id int

	issue      *sim.Resource
	loadCred   *sim.Credits // local/remote demand loads (line-fill buffers)
	ntLoadCred *sim.Credits
	wcCred     *sim.Credits // non-temporal store WC buffers
	cxlLoad    *sim.Credits // outstanding demand loads to CXL memory
	cxlStore   *sim.Credits // outstanding RFO stores to CXL memory
	ntEgress   *sim.Resource

	// Sched is the run-queue resource used by sim.Proc to model software
	// contending for this core's cycles.
	Sched *sim.Resource
}

func newCore(h *Host, id int) *Core {
	p := h.p
	return &Core{
		h:          h,
		id:         id,
		issue:      sim.NewResource(fmt.Sprintf("core%d.issue", id)),
		loadCred:   sim.NewCredits(fmt.Sprintf("core%d.lfb", id), p.Host.LoadCredits),
		ntLoadCred: sim.NewCredits(fmt.Sprintf("core%d.ntlfb", id), p.Host.NTLoadCredits),
		wcCred:     sim.NewCredits(fmt.Sprintf("core%d.wc", id), p.Host.WCBuffers),
		cxlLoad:    sim.NewCredits(fmt.Sprintf("core%d.cxl-ld", id), p.CXL.H2DLoadCredits),
		cxlStore:   sim.NewCredits(fmt.Sprintf("core%d.cxl-st", id), p.CXL.H2DStoreCredits),
		ntEgress:   sim.NewResource(fmt.Sprintf("core%d.ntegress", id)),
		Sched:      sim.NewResource(fmt.Sprintf("core%d.sched", id)),
	}
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

func (c *Core) resetTiming() {
	c.issue.Reset()
	c.loadCred.Reset()
	c.ntLoadCred.Reset()
	c.wcCred.Reset()
	c.cxlLoad.Reset()
	c.cxlStore.Reset()
	c.ntEgress.Reset()
}

// AccessResult describes one host memory operation.
type AccessResult struct {
	// Done is the core-visible completion: data return for loads,
	// store-buffer/WC retirement for stores.
	Done sim.Time
	// DeviceDone, for posted writes to device memory, is when the line
	// actually lands in the device (>= Done).
	DeviceDone sim.Time
	// Data is the 64-byte line for loads of device or local memory when
	// functional data is in play.
	Data []byte
	// LLCHit / DMCHit report where the line was found.
	LLCHit bool
	DMCHit bool
}

// Access issues one 64-byte host memory operation at addr. Device-memory
// addresses take the CXL.mem H2D path; host addresses take the local
// hierarchy. data supplies the payload for stores.
func (c *Core) Access(op cxl.HostOp, addr phys.Addr, data []byte, now sim.Time) AccessResult {
	return c.access(op, addr, data, now, true)
}

// AccessTiming is Access for callers that discard the returned payload:
// identical timing and cache/memory state transitions, but no line
// buffer is materialized for loads. The serving hot paths issue
// millions of timing-only line ops per run, so skipping the payload is
// a measurable share of their allocation footprint.
func (c *Core) AccessTiming(op cxl.HostOp, addr phys.Addr, now sim.Time) sim.Time {
	return c.access(op, addr, nil, now, false).Done
}

func (c *Core) access(op cxl.HostOp, addr phys.Addr, data []byte, now sim.Time, wantData bool) AccessResult {
	kind, ok := c.h.amap.Resolve(addr)
	if !ok {
		panic(fmt.Sprintf("host: access to unmapped address %v", addr))
	}
	switch kind {
	case mem.KindDevice:
		return c.accessCXL(op, addr, data, now)
	case mem.KindHost0:
		return c.accessLocal(op, addr, data, now, false, wantData)
	case mem.KindHost1:
		// A socket-0 core reaching socket 1's memory: the same functional
		// path with the UPI round trip and remote service costs added.
		return c.accessLocal(op, addr, data, now, true, wantData)
	default:
		panic(fmt.Sprintf("host: Access cannot target %v; use the pcie package for MMIO", kind))
	}
}

// accessLocal is the host-DRAM path: L1/L2 modeled as latency, LLC and
// memory modeled with real state. Functional stores write through to the
// backing store so that device D2H reads always observe the latest data.
// remote adds the UPI round trip and remote-home service costs (a socket-0
// core reaching socket-1 memory).
func (c *Core) accessLocal(op cxl.HostOp, addr phys.Addr, data []byte, now sim.Time, remote, wantData bool) AccessResult {
	p := c.h.p
	addr = phys.LineAddr(addr)
	start := c.issue.Claim(now, p.Host.IssueGap)
	t := start + p.Host.LocalLookup
	var remoteExtra sim.Time
	if remote {
		remoteExtra = 2*p.UPI.OneWay + p.UPI.RemoteDRAMRead - p.DRAM.DDR5Read
		if remoteExtra < 0 {
			remoteExtra = 0
		}
	}

	// If the device holds the line (HMC), recall it first.
	c.snoopDeviceIfNeeded(addr)

	line := c.h.llc.Peek(addr)
	hit := line.Valid()
	switch op {
	case cxl.Ld, cxl.NtLd:
		if hit {
			done := t + p.Host.LLCHit
			if op == cxl.NtLd {
				done += p.UPI.NTLoadExtraHit // NT path overhead is socket-local too
			}
			res := AccessResult{Done: done, LLCHit: true}
			if wantData {
				res.Data = c.h.arena.Clone(line.Data)
			}
			return res
		}
		cred := c.loadCred
		if op == cxl.NtLd {
			cred = c.ntLoadCred
		}
		s := cred.Acquire(t)
		done := s + p.DRAM.DDR5Read + remoteExtra
		cred.Complete(done)
		res := AccessResult{Done: done}
		if wantData || op == cxl.Ld {
			buf := c.h.arena.Line()
			c.h.stor.ReadLine(addr, buf)
			if op == cxl.Ld {
				c.fillLLC(addr, cache.Exclusive, buf)
			}
			if wantData {
				res.Data = buf
			}
		}
		return res

	case cxl.St:
		if data != nil {
			c.h.stor.WriteLine(addr, data) // functional write-through
		}
		if hit {
			line.State = cache.Modified
			c.h.llc.SetData(line, data)
			return AccessResult{Done: t + p.Host.LLCHit, LLCHit: true}
		}
		// RFO: fetch then modify.
		s := c.loadCred.Acquire(t)
		done := s + p.DRAM.DDR5Read + remoteExtra
		c.loadCred.Complete(done)
		c.fillLLC(addr, cache.Modified, data)
		return AccessResult{Done: done}

	case cxl.NtSt:
		// Streaming store: invalidate any cached copy, post to memory.
		c.h.llc.Invalidate(addr)
		if data != nil {
			c.h.stor.WriteLine(addr, data)
		}
		s := c.wcCred.Acquire(t)
		admitted := c.h.chs.PostWrite(addr, s+p.Host.StoreIssueGap+remoteExtra/2)
		c.wcCred.Complete(admitted)
		return AccessResult{Done: admitted, LLCHit: hit}

	default:
		panic(fmt.Sprintf("host: unknown op %v", op))
	}
}

// accessCXL is the H2D path to device memory over CXL.mem (§V-C).
func (c *Core) accessCXL(op cxl.HostOp, addr phys.Addr, data []byte, now sim.Time) AccessResult {
	p := c.h.p
	dev := c.h.Dev
	if dev == nil {
		panic("host: no CXL device attached")
	}
	addr = phys.LineAddr(addr)
	start := c.issue.Claim(now, p.Host.IssueGap)
	t := start + p.Host.LocalLookup

	// Host caches device-memory lines in its hierarchy (CXL.mem is
	// cacheable): an LLC hit short-circuits the link — the NC-P fast path
	// of Insight 4.
	line := c.h.llc.Peek(addr)
	if line.Valid() && op != cxl.NtSt && op != cxl.NtLd {
		// LLC-hit accesses to device-region lines still recycle the CXL
		// demand-miss tracking entries, bounding their throughput.
		s := c.cxlLoad.Acquire(t)
		done := s + p.Host.LLCHitRemoteDevice
		if op == cxl.St {
			if line.State == cache.Shared {
				// S→M upgrade: ownership must be granted by the device so
				// its DMC copy is invalidated (CXL.mem back-invalidate).
				done += 2*p.CXL.OneWay + p.CXL.MemProc + dev.UpgradeHostOwnership(addr)
			}
			line.State = cache.Modified
			if data != nil {
				c.h.llc.SetData(line, data)
				dev.WriteDevMemDirect(addr, data) // functional write-through
			}
		}
		c.cxlLoad.Complete(done)
		return AccessResult{Done: done, Data: c.h.arena.Clone(line.Data), LLCHit: true}
	}

	switch op {
	case cxl.Ld, cxl.NtLd, cxl.St:
		cred := c.cxlLoad
		if op == cxl.St {
			cred = c.cxlStore
		}
		s := cred.Acquire(t)
		arrive := c.h.CXLLink.Transfer(interconnect.Down, s, cxl.HeaderBytes) + p.CXL.MemProc
		hres := dev.H2D(op, addr, nil, arrive)
		done := c.h.CXLLink.Transfer(interconnect.Up, hres.Done, cxl.DataBytes)
		cred.Complete(done)
		st := hres.HostState
		if st == cache.Invalid {
			st = cache.Exclusive
		}
		if op == cxl.St {
			st = cache.Modified
			if data != nil {
				copy(hres.Data, data)
				dev.WriteDevMemDirect(addr, data)
			}
		}
		if op != cxl.NtLd {
			c.fillLLC(addr, st, hres.Data)
		}
		return AccessResult{Done: done, Data: hres.Data, DMCHit: hres.DMCHit}

	case cxl.NtSt:
		// Posted: the core retires the store once it leaves the WC buffer;
		// the device completes it later.
		c.h.llc.Invalidate(addr)
		s := c.wcCred.Acquire(t)
		egress := c.ntEgress.Claim(s, p.Host.NTStoreEgressGap)
		hostDone := egress + p.Host.NTStoreEgressGap
		arrive := c.h.CXLLink.Transfer(interconnect.Down, egress, cxl.DataBytes) + p.CXL.MemProc
		hres := dev.H2D(op, addr, data, arrive)
		c.wcCred.Complete(hostDone)
		return AccessResult{Done: hostDone, DeviceDone: hres.Done, DMCHit: hres.DMCHit}

	default:
		panic(fmt.Sprintf("host: unknown op %v", op))
	}
}

// FenceCXL models a store fence draining this core's posted CXL writes: it
// returns when the last posted write is globally visible at device memory
// and acknowledged back (used to time nt-st block transfers, Fig. 6).
func (c *Core) FenceCXL(now sim.Time) sim.Time {
	p := c.h.p
	drain := c.ntEgress.FreeAt()
	if drain < now {
		drain = now
	}
	return drain + 2*(p.CXL.OneWay+p.CXL.MemProc) + p.Device.DevMemCtrl + p.DRAM.DDR4Write
}

// snoopDeviceIfNeeded recalls a line from the device HMC when the home
// directory says the device owns it.
func (c *Core) snoopDeviceIfNeeded(addr phys.Addr) {
	st, held := c.h.home.SnoopDevice(addr)
	if !held || c.h.Dev == nil {
		return
	}
	if rst, data, ok := c.h.Dev.RecallHMC(addr); ok {
		if (rst == cache.Modified || st == cache.Modified) && data != nil {
			c.h.stor.WriteLine(addr, data)
		}
	}
}

// fillLLC installs a line in LLC, writing back a dirty victim.
func (c *Core) fillLLC(addr phys.Addr, st cache.State, data []byte) {
	v, evicted := c.h.llc.Fill(addr, st, data)
	if evicted && v.Dirty() {
		c.writebackVictim(v)
	}
}

func (c *Core) writebackVictim(v cache.Victim) {
	if v.Data == nil {
		return
	}
	if c.h.amap.IsDevice(v.Addr) {
		if c.h.Dev != nil {
			c.h.Dev.WriteDevMemDirect(v.Addr, v.Data)
		}
		return
	}
	c.h.stor.WriteLine(v.Addr, v.Data)
}

// CLFlush flushes the line at addr from the host hierarchy (writing dirty
// data back), returning the completion time — the paper's state-priming
// primitive.
func (c *Core) CLFlush(addr phys.Addr, now sim.Time) sim.Time {
	addr = phys.LineAddr(addr)
	if st, data, ok := c.h.llc.Invalidate(addr); ok && st == cache.Modified && data != nil {
		if c.h.amap.IsDevice(addr) {
			if c.h.Dev != nil {
				c.h.Dev.WriteDevMemDirect(addr, data)
			}
		} else {
			c.h.stor.WriteLine(addr, data)
		}
	}
	return now + c.h.p.Host.CLFlush
}

// CLDemote pushes the line at addr out of the core's private levels into
// LLC (the CLDEMOTE priming of §V's methodology). Since private levels are
// modeled as latency only, this installs the line in LLC with the given
// state and data.
func (c *Core) CLDemote(addr phys.Addr, st cache.State, data []byte, now sim.Time) sim.Time {
	c.fillLLC(phys.LineAddr(addr), st, data)
	return now + c.h.p.Host.CLDemote
}
