package experiments

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// quick lowers repetition counts: the model is deterministic, so medians
// converge immediately; the paper's 1K repetitions matter on real hardware.
var quick3 = Fig3Config{Reps: 120}
var quick4 = Fig4Config{Reps: 120}
var quick5 = Fig5Config{Reps: 120}

// ---------- Fig. 3 ----------

func TestFig3LatencyRatios(t *testing.T) {
	rows := jobRows[Fig3Row](t, Fig3Jobs(quick3))
	cases := []struct {
		trueLbl, emuLbl string
		llcHit          bool
		wantPct         float64 // paper §V-A
		tol             float64
	}{
		{"NC-rd", "nt-ld", true, 38, 0.20},
		{"CS-rd", "ld", true, 96, 0.20},
		{"NC-wr", "nt-st", true, 71, 0.20},
		{"CO-wr", "st", true, 56, 0.20},
		{"NC-rd", "nt-ld", false, 2, 4}, // ±4pp absolute-ish via wide tol
		{"CS-rd", "ld", false, 18, 0.35},
		{"NC-wr", "nt-st", false, 67, 0.20},
		{"CO-wr", "st", false, 57, 0.20},
	}
	for _, c := range cases {
		a := Fig3Find(rows, c.trueLbl, true, c.llcHit)
		b := Fig3Find(rows, c.emuLbl, false, c.llcHit)
		got := stats.PctHigher(a.LatencyNs, b.LatencyNs)
		if !stats.Within(got, c.wantPct, c.tol) {
			t.Errorf("%s vs %s llc=%v: +%.0f%%, paper +%.0f%%", c.trueLbl, c.emuLbl, c.llcHit, got, c.wantPct)
		}
	}
}

func TestFig3BandwidthRelations(t *testing.T) {
	rows := jobRows[Fig3Row](t, Fig3Jobs(quick3))
	// §V-A: CXL reads beat emulated reads by ~1.8–2.2× when latency is
	// comparable (LLC-0). Our model lands at 1.67–2.2 (see EXPERIMENTS.md).
	cs := Fig3Find(rows, "CS-rd", true, false)
	ld := Fig3Find(rows, "ld", false, false)
	ncr := Fig3Find(rows, "NC-rd", true, false)
	ntld := Fig3Find(rows, "nt-ld", false, false)
	if r := cs.BandwidthGBs / ld.BandwidthGBs; r < 1.55 || r > 2.35 {
		t.Errorf("CS-rd/ld bandwidth ratio = %.2f, want ~1.8-2.2", r)
	}
	if r := ncr.BandwidthGBs / ntld.BandwidthGBs; r < 1.55 || r > 2.35 {
		t.Errorf("NC-rd/nt-ld bandwidth ratio = %.2f, want ~1.8-2.2", r)
	}
	// Writes: NC-wr below nt-st; CO-wr(LLC-0) below st at 16 accesses.
	for _, llc := range []bool{true, false} {
		if Fig3Find(rows, "NC-wr", true, llc).BandwidthGBs >= Fig3Find(rows, "nt-st", false, llc).BandwidthGBs {
			t.Errorf("NC-wr should trail nt-st at llc=%v", llc)
		}
	}
	if Fig3Find(rows, "CO-wr", true, false).BandwidthGBs >= Fig3Find(rows, "st", false, false).BandwidthGBs {
		t.Error("CO-wr should trail st at 16 accesses (the crossover comes later)")
	}
	// Reads deliver less bandwidth than writes (write-queue effect, §V-A).
	if cs.BandwidthGBs >= Fig3Find(rows, "nt-st", false, false).BandwidthGBs {
		t.Error("reads should trail posted writes")
	}
}

// ---------- Fig. 4 ----------

func TestFig4BiasModes(t *testing.T) {
	rows := jobRows[Fig4Row](t, Fig4Jobs(quick4))
	// Writes hitting DMC: device-bias ~60 % lower latency (§V-B).
	for _, wr := range []string{"NC-wr", "CO-wr"} {
		hb := Fig4Find(rows, wr, false, true, false)
		db := Fig4Find(rows, wr, false, true, true)
		lower := stats.PctLower(db.LatencyNs, hb.LatencyNs)
		if !stats.Within(lower, 60, 0.15) {
			t.Errorf("%s DMC-1 device-bias %.0f%% lower, paper ~60%%", wr, lower)
		}
		// Bandwidth: device-bias 8–13 % higher.
		gain := stats.PctHigher(db.BandwidthGBs, hb.BandwidthGBs)
		if gain < 6 || gain > 16 {
			t.Errorf("%s DMC-1 device-bias bandwidth +%.1f%%, paper 8-13%%", wr, gain)
		}
	}
	// Shared-state reads: no notable bias-mode difference.
	for _, rd := range []string{"NC-rd", "CS-rd"} {
		hb := Fig4Find(rows, rd, false, true, false)
		db := Fig4Find(rows, rd, false, true, true)
		if diff := stats.PctHigher(hb.LatencyNs, db.LatencyNs); diff > 5 {
			t.Errorf("%s DMC-1 bias penalty = %.1f%%, paper ~0", rd, diff)
		}
		// Misses: host-bias pays the LLC coherence check.
		hb0 := Fig4Find(rows, rd, false, false, false)
		db0 := Fig4Find(rows, rd, false, false, true)
		if hb0.LatencyNs <= db0.LatencyNs {
			t.Errorf("%s DMC-0 host-bias should be slower", rd)
		}
	}
	// Emulated DMC-1 (host L1) is far faster than the 400 MHz FPGA's DMC
	// (the 5.5× frequency argument of §V-B).
	emu := Fig4Find(rows, "ld", true, true, false)
	real := Fig4Find(rows, "CS-rd", false, true, false)
	if emu.LatencyNs*5 > real.LatencyNs {
		t.Errorf("emulated DMC hit %.1fns vs FPGA %.1fns: expected ≫5× gap", emu.LatencyNs, real.LatencyNs)
	}
}

// ---------- Fig. 5 ----------

func TestFig5TypePenalties(t *testing.T) {
	rows := jobRows[Fig5Row](t, Fig5Jobs(quick5))
	for _, op := range []cxl.HostOp{cxl.Ld, cxl.NtLd, cxl.St, cxl.NtSt} {
		t2 := Fig5Find(rows, op, CaseT2Miss)
		t3 := Fig5Find(rows, op, CaseT3)
		pct := stats.PctHigher(t2.LatencyNs, t3.LatencyNs)
		if pct < 1 || pct > 8 {
			t.Errorf("%v: T2 vs T3 latency +%.1f%%, paper 2-5%%", op, pct)
		}
		owned := Fig5Find(rows, op, CaseT2Owned)
		pct = stats.PctHigher(owned.LatencyNs, t2.LatencyNs)
		if pct < 5 || pct > 22 {
			t.Errorf("%v: owned-hit +%.1f%%, paper 6-17%%", op, pct)
		}
		shared := Fig5Find(rows, op, CaseT2Shared)
		if d := stats.PctHigher(shared.LatencyNs, t2.LatencyNs); d > 2 {
			t.Errorf("%v: shared-hit +%.1f%%, paper negligible", op, d)
		}
	}
	// Modified hits: +36–40 % for ld and st (§V-C).
	for _, op := range []cxl.HostOp{cxl.Ld, cxl.St} {
		mod := Fig5Find(rows, op, CaseT2Modified)
		t2 := Fig5Find(rows, op, CaseT2Miss)
		pct := stats.PctHigher(mod.LatencyNs, t2.LatencyNs)
		if pct < 30 || pct > 46 {
			t.Errorf("%v: modified-hit +%.0f%%, paper 36-40%%", op, pct)
		}
	}
}

func TestFig5NCPInsight4(t *testing.T) {
	rows := jobRows[Fig5Row](t, Fig5Jobs(quick5))
	for _, op := range []cxl.HostOp{cxl.Ld, cxl.St} {
		push := Fig5Find(rows, op, CaseT2Pushed)
		miss := Fig5Find(rows, op, CaseT2Miss)
		lower := stats.PctLower(push.LatencyNs, miss.LatencyNs)
		if lower < 80 || lower > 90 {
			t.Errorf("%v pushed: %.0f%% lower latency, paper 82-87%%", op, lower)
		}
		boost := push.BandwidthGBs / miss.BandwidthGBs
		if boost < 4.0 || boost > 8.0 {
			t.Errorf("%v pushed: %.1fx bandwidth, paper 4.1-6.7x", op, boost)
		}
	}
}

func TestFig5NtStBandwidthDominance(t *testing.T) {
	rows := jobRows[Fig5Row](t, Fig5Jobs(quick5))
	ntst := Fig5Find(rows, cxl.NtSt, CaseT2Miss).BandwidthGBs
	ratios := map[string]float64{
		"nt-ld": ntst / Fig5Find(rows, cxl.NtLd, CaseT2Miss).BandwidthGBs, // paper 12.2
		"ld":    ntst / Fig5Find(rows, cxl.Ld, CaseT2Miss).BandwidthGBs,   // paper 13.2
		"st":    ntst / Fig5Find(rows, cxl.St, CaseT2Miss).BandwidthGBs,   // paper 10.7
	}
	for name, r := range ratios {
		if r < 7 || r > 18 {
			t.Errorf("nt-st/%s bandwidth = %.1fx, paper ~11-13x", name, r)
		}
	}
}

// ---------- Fig. 6 ----------

func TestFig6SmallTransferLatency(t *testing.T) {
	rows := jobRows[Fig6Row](t, Fig6Jobs())
	cxlst := Fig6Find(rows, MechCXLSt, false, 256)
	cases := []struct {
		mech Fig6Mechanism
		want float64 // §V-D: CXL-ST is this % lower at 256 B
	}{
		{MechPCIeMMIO, 83},
		{MechPCIeDMA, 72},
		{MechPCIeRDMA, 81},
		{MechPCIeDOCA, 92},
	}
	for _, c := range cases {
		o := Fig6Find(rows, c.mech, false, 256)
		got := stats.PctLower(cxlst.LatencyNs, o.LatencyNs)
		if !stats.Within(got, c.want, 0.06) {
			t.Errorf("CXL-ST vs %v at 256B: %.0f%% lower, paper %.0f%%", c.mech, got, c.want)
		}
	}
}

func TestFig6D2HvsRDMA(t *testing.T) {
	rows := jobRows[Fig6Row](t, Fig6Jobs())
	// §V-D: D2H CXL-LD ~3× lower latency than PCIe-RDMA across sizes (our
	// spread: ~5× at 64 B down to ~1.8× at 16 KB; see EXPERIMENTS.md).
	for _, size := range []int{256, 1024, 4096} {
		c := Fig6Find(rows, MechCXLLd, true, size)
		r := Fig6Find(rows, MechPCIeRDMA, true, size)
		ratio := r.LatencyNs / c.LatencyNs
		if ratio < 2.0 || ratio > 5.5 {
			t.Errorf("D2H %dB: RDMA/CXL-LD = %.1fx, paper ~3x", size, ratio)
		}
	}
}

func TestFig6Saturation(t *testing.T) {
	rows := jobRows[Fig6Row](t, Fig6Jobs())
	dma := Fig6Find(rows, MechPCIeDMA, false, 256<<10).BandwidthGBs
	dsa := Fig6Find(rows, MechCXLDSA, false, 256<<10).BandwidthGBs
	rdma := Fig6Find(rows, MechPCIeRDMA, false, 256<<10).BandwidthGBs
	if dma < 26 || dma > 32 {
		t.Errorf("PCIe-DMA saturation = %.1f GB/s, paper ~30", dma)
	}
	if dsa < 26 || dsa > 34 {
		t.Errorf("CXL-DSA saturation = %.1f GB/s, paper ~30", dsa)
	}
	if rdma < 35 || rdma > 44 {
		t.Errorf("PCIe-RDMA saturation = %.1f GB/s, paper ~40", rdma)
	}
}

func TestFig6LargeTransferBottleneck(t *testing.T) {
	rows := jobRows[Fig6Row](t, Fig6Jobs())
	// §V-D: beyond 1 KB the CPU LD queue bottlenecks CXL-LD; CXL-DSA
	// addresses it with latency comparable to PCIe-DMA.
	ld4k := Fig6Find(rows, MechCXLLd, false, 4096)
	dsa4k := Fig6Find(rows, MechCXLDSA, false, 4096)
	dma4k := Fig6Find(rows, MechPCIeDMA, false, 4096)
	if dsa4k.LatencyNs >= ld4k.LatencyNs {
		t.Error("CXL-DSA should beat CXL-LD beyond 1KB")
	}
	if r := dsa4k.LatencyNs / dma4k.LatencyNs; r < 0.5 || r > 1.5 {
		t.Errorf("CXL-DSA vs PCIe-DMA at 4KB = %.2fx, paper: comparable", r)
	}
	// Insight 5: D2H (CXL-LD) beats H2D (CXL-ST) for small transfers.
	d2h := Fig6Find(rows, MechCXLLd, true, 256)
	h2d := Fig6Find(rows, MechCXLSt, false, 256)
	if d2h.LatencyNs >= h2d.LatencyNs {
		t.Error("insight 5: D2H should be the lower-latency direction")
	}
}

// ---------- Table III ----------

func TestTable3MatchesPaper(t *testing.T) {
	rows := jobRows[Table3Row](t, Table3Jobs())
	want := map[string][2]cache.State{ // request/initial → {HMC, LLC}
		"NC-P/HMC hit":   {cache.Invalid, cache.Modified},
		"NC-P/LLC hit":   {cache.Invalid, cache.Modified},
		"NC-P/LLC miss":  {cache.Invalid, cache.Modified},
		"NC-rd/HMC hit":  {cache.Shared, cache.Invalid},
		"NC-rd/LLC hit":  {cache.Invalid, cache.Exclusive},
		"NC-rd/LLC miss": {cache.Invalid, cache.Invalid},
		"NC-wr/HMC hit":  {cache.Invalid, cache.Invalid},
		"NC-wr/LLC hit":  {cache.Invalid, cache.Invalid},
		"NC-wr/LLC miss": {cache.Invalid, cache.Invalid},
		"CO-rd/HMC hit":  {cache.Exclusive, cache.Invalid},
		"CO-rd/LLC hit":  {cache.Exclusive, cache.Invalid},
		"CO-rd/LLC miss": {cache.Exclusive, cache.Invalid},
		"CO-wr/HMC hit":  {cache.Modified, cache.Invalid},
		"CO-wr/LLC hit":  {cache.Modified, cache.Invalid},
		"CO-wr/LLC miss": {cache.Modified, cache.Invalid},
		"CS-rd/HMC hit":  {cache.Shared, cache.Invalid},
		"CS-rd/LLC hit":  {cache.Shared, cache.Shared},
		"CS-rd/LLC miss": {cache.Shared, cache.Invalid},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		key := r.Req.String() + "/" + r.Initial
		w, ok := want[key]
		if !ok {
			t.Errorf("unexpected row %q", key)
			continue
		}
		if r.HMCState != w[0] || r.LLCState != w[1] {
			t.Errorf("%s: HMC=%v LLC=%v, want HMC=%v LLC=%v", key, r.HMCState, r.LLCState, w[0], w[1])
		}
	}
}

// ---------- Table IV ----------

func TestTable4Shape(t *testing.T) {
	rows := jobRows[Table4Row](t, Table4Jobs())
	rdma := Table4Find(rows, "pcie-rdma-zswap")
	dma := Table4Find(rows, "pcie-dma-zswap")
	cxlRow := Table4Find(rows, "cxl-zswap")
	if !(cxlRow.Total < dma.Total && dma.Total < rdma.Total) {
		t.Fatalf("totals: cxl=%.1f dma=%.1f rdma=%.1f; paper 3.9 < 6.2 < 10.9",
			cxlRow.Total, dma.Total, rdma.Total)
	}
	if !cxlRow.Pipelined {
		t.Error("cxl row must be pipelined")
	}
	// Paper's ratios: cxl 64 % lower than rdma, 37 % lower than dma.
	if got := stats.PctLower(cxlRow.Total, rdma.Total); !stats.Within(got, 64, 0.25) {
		t.Errorf("cxl vs rdma: %.0f%% lower, paper 64%%", got)
	}
	if got := stats.PctLower(cxlRow.Total, dma.Total); !stats.Within(got, 37, 0.45) {
		t.Errorf("cxl vs dma: %.0f%% lower, paper 37%%", got)
	}
	// Absolute magnitudes in the table's ballpark (µs).
	if rdma.Total < 7 || rdma.Total > 14 {
		t.Errorf("rdma total = %.1f µs, paper 10.9", rdma.Total)
	}
	if dma.Total < 4.5 || dma.Total > 8 {
		t.Errorf("dma total = %.1f µs, paper 6.2", dma.Total)
	}
	if cxlRow.Total < 2.5 || cxlRow.Total > 5.5 {
		t.Errorf("cxl total = %.1f µs, paper 3.9", cxlRow.Total)
	}
}

// ---------- §V-A write-queue sweep ----------

func TestWriteQueueCrossover(t *testing.T) {
	rows := jobRows[WriteQueueRow](t, WriteQueueSweepJobs([]int{16, 64, 1024}))
	// At 16 accesses CO-wr trails st; beyond 16 it overtakes (§V-A).
	if FindWriteQueueRow(rows, "CO-wr", 16).BWGBs >= FindWriteQueueRow(rows, "st", 16).BWGBs {
		t.Error("CO-wr should trail st at N=16")
	}
	if FindWriteQueueRow(rows, "CO-wr", 64).BWGBs <= FindWriteQueueRow(rows, "st", 64).BWGBs {
		t.Error("CO-wr should overtake st beyond N=16")
	}
	// nt-st declines once bursts exceed the 8×32-entry write queues
	// (256 lines): by N=1024 the drain rate binds.
	if FindWriteQueueRow(rows, "nt-st", 1024).BWGBs >= FindWriteQueueRow(rows, "nt-st", 64).BWGBs {
		t.Error("nt-st bandwidth should decline beyond the write-queue capacity")
	}
}

// ---------- Fig. 8 (smoke; the full sweep runs via cmd/kvsbench) ----------

func TestFig8ZswapShape(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation experiment")
	}
	cfg := Fig8Config{Duration: shortDuration()}
	base := Fig8Zswap(Baseline, ycsbA(), cfg)
	cpu := Fig8Zswap(Fig8Variant(0), ycsbA(), cfg)
	cxlR := Fig8Zswap(Fig8Variant(3), ycsbA(), cfg)
	if !base.VerifyOK || !cpu.VerifyOK || !cxlR.VerifyOK {
		t.Fatal("data integrity lost under co-simulation")
	}
	cpuNorm := cpu.P99us / base.P99us
	cxlNorm := cxlR.P99us / base.P99us
	if cpuNorm < 3 {
		t.Errorf("cpu-zswap p99 = %.2fx baseline, paper 5.1-10.3x", cpuNorm)
	}
	if cxlNorm > 1.6 {
		t.Errorf("cxl-zswap p99 = %.2fx baseline, paper 1.14-1.26x", cxlNorm)
	}
	if cxlR.P99us >= cpu.P99us {
		t.Error("cxl-zswap must beat cpu-zswap")
	}
	if cxlR.FeatureCPUPct >= cpu.FeatureCPUPct {
		t.Error("cxl-zswap must consume less host CPU than cpu-zswap")
	}
}

func TestFig8KsmShape(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation experiment")
	}
	cfg := Fig8Config{Duration: shortDuration()}
	base := Fig8Ksm(Baseline, ycsbA(), cfg)
	cpu := Fig8Ksm(Fig8Variant(0), ycsbA(), cfg)
	cxlR := Fig8Ksm(Fig8Variant(3), ycsbA(), cfg)
	if !base.VerifyOK || !cpu.VerifyOK || !cxlR.VerifyOK {
		t.Fatal("data integrity lost under ksm co-simulation")
	}
	if cpu.P99us/base.P99us < 2 {
		t.Errorf("cpu-ksm p99 = %.2fx baseline, paper 4.5-7.6x", cpu.P99us/base.P99us)
	}
	if cxlR.P99us/base.P99us > 1.6 {
		t.Errorf("cxl-ksm p99 = %.2fx baseline, paper 1.16-1.30x", cxlR.P99us/base.P99us)
	}
	if cxlR.P99us >= cpu.P99us {
		t.Error("cxl-ksm must beat cpu-ksm")
	}
}

func TestPrintersDoNotPanic(t *testing.T) {
	var sb strings.Builder
	PrintFig3(&sb, jobRows[Fig3Row](t, Fig3Jobs(Fig3Config{Reps: 4, Burst: 4})))
	PrintFig4(&sb, jobRows[Fig4Row](t, Fig4Jobs(Fig4Config{Reps: 4, Burst: 64})))
	PrintFig5(&sb, jobRows[Fig5Row](t, Fig5Jobs(Fig5Config{Reps: 4, Burst: 4})))
	PrintFig6(&sb, jobRows[Fig6Row](t, Fig6Jobs()))
	PrintTable3(&sb, jobRows[Table3Row](t, Table3Jobs()))
	PrintTable4(&sb, jobRows[Table4Row](t, Table4Jobs()))
	PrintWriteQueueSweep(&sb, jobRows[WriteQueueRow](t, WriteQueueSweepJobs([]int{16, 32})))
	if sb.Len() == 0 {
		t.Fatal("no output")
	}
	if !strings.Contains(sb.String(), "Table IV") {
		t.Fatal("missing table title")
	}
}

// TestDeterminism: identical configurations reproduce identical rows — the
// property that makes the recorded EXPERIMENTS.md numbers exact.
func TestDeterminism(t *testing.T) {
	a := jobRows[Fig3Row](t, Fig3Jobs(Fig3Config{Reps: 40}))
	b := jobRows[Fig3Row](t, Fig3Jobs(Fig3Config{Reps: 40}))
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	t3a, t3b := jobRows[Table4Row](t, Table4Jobs()), jobRows[Table4Row](t, Table4Jobs())
	for i := range t3a {
		if t3a[i] != t3b[i] {
			t.Fatalf("Table4 row %d differs", i)
		}
	}
}

// TestFig8JobsRejectUnknownFeature pins that a feature name other than
// "ksm" or "zswap" panics when the jobs are built, instead of running as
// zswap under the misspelt name.
func TestFig8JobsRejectUnknownFeature(t *testing.T) {
	for _, f := range []string{"ksm", "zswap"} {
		if jobs := Fig8Jobs(f, nil, Fig8Config{}); len(jobs) != len(ycsb.Workloads()) {
			t.Fatalf("Fig8Jobs(%q) built %d jobs, want one per workload", f, len(jobs))
		}
	}
	for _, f := range []string{"", "foo", "KSM", "zswap "} {
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, "ksm") || !strings.Contains(msg, "zswap") {
					t.Errorf("Fig8Jobs(%q) recovered %v, want a panic naming ksm and zswap", f, r)
				}
			}()
			Fig8Jobs(f, nil, Fig8Config{})
		}()
	}
}

func TestFig8Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("co-simulation")
	}
	cfg := Fig8Config{Duration: 60 * 1e9} // 60 ms
	a := Fig8Zswap(Fig8Variant(3), ycsbA(), cfg)
	b := Fig8Zswap(Fig8Variant(3), ycsbA(), cfg)
	if a.P99us != b.P99us || a.Served != b.Served || a.Faults != b.Faults {
		t.Fatalf("nondeterministic co-simulation: %+v vs %+v", a, b)
	}
}
