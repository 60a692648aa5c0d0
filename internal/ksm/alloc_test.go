package ksm_test

import (
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/host"
	"repro/internal/kernel"
	"repro/internal/ksm"
	"repro/internal/offload"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/timing"
)

// TestFullScanCopiesNoPages guards the zero-copy page path: the scanner
// checksums and compares store views over its two scratch pages, so a
// steady-state full scan with the CPU backend allocates far less than one
// page per scanned page. The warm-up scan records checksums; the measured
// scan walks both trees and merges the duplicates.
func TestFullScanCopiesNoPages(t *testing.T) {
	h := host.MustNew(timing.Default(), host.Config{LLCBytes: 4 << 20, LLCWays: 16, Cores: 4})
	if _, err := h.Attach(device.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	mm := kernel.NewMM(h.Params(), h.Store(), 0x2000_0000, 256)
	mm.SetSwap(kernel.NewBackingSwap(sim.Microsecond, sim.Microsecond))
	s := ksm.NewScanner(mm, offload.NewKsmBackend(offload.CPU, offload.NewPlatform(h)))
	proc := sim.NewProc(sim.NewEngine(), "ksmd", nil)

	// Three VMs of 16 pages over 8 distinct contents, each differing
	// only in its last byte so that every compare runs the whole page.
	const vms, pages = 3, 16
	data := make([]byte, phys.PageSize)
	for vm := 1; vm <= vms; vm++ {
		as := mm.NewAddressSpace(vm)
		for i := 0; i < pages; i++ {
			data[len(data)-1] = byte(i % 8)
			if err := as.Map(uint64(i), data, proc); err != nil {
				t.Fatal(err)
			}
		}
		s.RegisterRange(as, 0, pages)
	}

	s.FullScan(proc)
	before := s.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	merged := s.FullScan(proc)
	runtime.ReadMemStats(&m1)
	after := s.Stats()

	scanned := after.PagesScanned - before.PagesScanned
	if merged == 0 || after.Compares == before.Compares {
		t.Fatalf("measured scan merged %d pages in %d compares; it must walk the trees",
			merged, after.Compares-before.Compares)
	}
	if perPage := (m1.TotalAlloc - m0.TotalAlloc) / scanned; perPage >= 512 {
		t.Fatalf("full scan allocated %d B per scanned page (%d pages), want < 512: a page is being copied",
			perPage, scanned)
	}
}
