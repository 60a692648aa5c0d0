// Package experiments holds the experiment registry: every table and
// figure of the paper's evaluation (§V–§VII) is a Section whose jobs each
// build a fresh simulated system, follow the paper's methodology (state
// priming with CLDEMOTE/CLFLUSH and warm-up reads, >=1K repetitions,
// median + standard deviation) and return structured rows, and whose
// renderer prints those rows like the paper's plots. The calibration
// tests in this package pin the headline ratios to the paper's numbers.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/mem"
	"repro/internal/phys"
	"repro/internal/timing"
)

// Rig is a freshly built system for one measurement.
type Rig struct {
	P    *timing.Params
	Host *host.Host
	Dev  *device.Device
	Emu  *host.EmuCore
}

// NewRig builds a rig with the given device personality (cxl.Type2 or
// cxl.Type3). A smaller-than-real LLC keeps rig construction cheap;
// capacity effects are not what the microbenchmarks measure. The §V
// access streams are fixed permutations, so a rig draws no randomness.
//
// Since the fabric layer landed, a rig is just the compiled 1×1 topology
// preset: one host directly attached to one CXL device
// (fabric.OneToOne), the degenerate case of the same Build path that
// wires multi-host clusters. The compiled components — host, home agent,
// calibrated CXL link, attached device — are identical to what the
// pre-fabric constructor built, so every golden file still renders byte
// for byte.
func NewRig(devType cxl.DeviceType) *Rig {
	kind := fabric.Type2
	if devType == cxl.Type3 {
		kind = fabric.Type3
	}
	topo := fabric.OneToOne(kind, fabric.NodeSpec{LLCBytes: 8 << 20, LLCWays: 16, Cores: 8})
	f := fabric.MustBuild(topo, nil)
	h := f.Host("h0")
	return &Rig{P: f.Params(), Host: h, Dev: h.Dev, Emu: h.NewEmuCore()}
}

// hostLine returns the i-th distinct host-memory line of a random-ish
// stream, line-aligned (the paper measures random accesses).
func (r *Rig) hostLine(i int) phys.Addr {
	// A large-stride permutation avoids set conflicts while staying
	// deterministic.
	return phys.Addr(0x100000) + phys.Addr((i*2654435761)%(1<<20))*phys.LineSize
}

// devLine returns the i-th device-memory line.
func (r *Rig) devLine(i int) phys.Addr {
	return mem.RegionDevice.Base + phys.Addr(1<<20) + phys.Addr((i*2654435761)%(1<<18))*phys.LineSize
}

// column formats a latency/bandwidth table cell.
func fmtCell(v float64) string { return fmt.Sprintf("%9.2f", v) }

// printTable writes a simple aligned table.
func printTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, h := range header {
		fmt.Fprintf(w, "%-17s", h)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		for _, c := range row {
			fmt.Fprintf(w, "%-17s", c)
		}
		fmt.Fprintln(w)
	}
}
