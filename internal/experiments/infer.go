package experiments

import (
	"fmt"
	"io"

	"repro/internal/infer"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/workload"
)

// The infer section answers the paper's Type-2 question for the workload
// that now dominates accelerator memory planning: where should an LLM
// serving engine put its paged KV cache? Each scenario runs the full
// transaction-level serving model of internal/infer — Poisson arrivals,
// continuous batching, prefill + decode — with the KV blocks placed by
// one policy over one far tier, and reports the serving metrics (TTFT,
// TPOT, goodput) next to the per-tier traffic that explains them.

// InferConfig tunes the infer section.
type InferConfig struct {
	// Reps scales the request count (Requests = Reps/2, clamped to
	// [12, 96]); 0 keeps the default of 48 requests per scenario.
	Reps int
	// Seed overrides the workload seed; 0 uses the job's derived seed.
	Seed int64
	// Trace, when set, replays the recorded request stream through every
	// scenario instead of generating one from the seed — the record/replay
	// path. Reps and Seed stop affecting the stream (they are recorded in
	// the trace), so two runs over the same trace serve identical requests
	// even across binary versions.
	Trace *workload.Trace
}

func (c InferConfig) requests() int {
	if c.Reps == 0 {
		return 48
	}
	n := c.Reps / 2
	if n < 12 {
		n = 12
	}
	if n > 96 {
		n = 96
	}
	return n
}

// InferScenario is one placement scenario of the section.
type InferScenario struct {
	// Name labels the row.
	Name string
	// Far is the far tier; Policy places blocks over DRAM + Far.
	Far    infer.Tier
	Policy infer.Policy
	// DRAMBlocks shrinks the DRAM pool when positive (the spill
	// scenario's pressure source).
	DRAMBlocks int
}

// InferScenarios lists the compared placements in presentation order:
// the all-DRAM baseline, one static split per far tier (the pure tier
// comparison), then the adaptive policies on the Type-2 device.
func InferScenarios() []InferScenario {
	return []InferScenario{
		{Name: "all-dram", Far: infer.TierDRAM, Policy: infer.AllDRAM{}},
		{Name: "kv@t2-dev", Far: infer.TierT2Dev, Policy: infer.StaticSplit{NearBlocks: 0}},
		{Name: "kv@t2-host", Far: infer.TierT2Host, Policy: infer.StaticSplit{NearBlocks: 0}},
		{Name: "kv@t3", Far: infer.TierT3, Policy: infer.StaticSplit{NearBlocks: 0}},
		{Name: "kv@pcie-dma", Far: infer.TierPCIe, Policy: infer.StaticSplit{NearBlocks: 0}},
		{Name: "lru-spill", Far: infer.TierT2Dev,
			Policy: infer.LRUSpill{LowWater: 8, HighWater: 12}, DRAMBlocks: 16},
		{Name: "pinned-decode", Far: infer.TierT2Dev, Policy: infer.PinnedDecode{}},
	}
}

// InferRow is one scenario's serving outcome.
type InferRow struct {
	Scenario  string
	Far       string
	TTFTp50   float64 // µs
	TTFTp99   float64 // µs
	TPOT      float64 // mean µs/token
	Goodput   float64 // tokens/s
	NearMB    float64 // KV bytes moved through host DRAM
	FarMB     float64 // KV bytes moved through the far tier
	MigrateMB float64 // DSA cold-block migration volume
}

// inferRow runs one scenario to completion.
func inferRow(sc InferScenario, requests int, seed int64, trace *workload.Trace) InferRow {
	m := infer.Run(infer.Config{
		Seed:       seed,
		Requests:   requests,
		Trace:      trace,
		Far:        sc.Far,
		Policy:     sc.Policy,
		DRAMBlocks: sc.DRAMBlocks,
	})
	const mb = 1.0 / (1 << 20)
	near := float64(m.ReadBytes[infer.TierDRAM] + m.WriteBytes[infer.TierDRAM])
	var far float64
	if sc.Far != infer.TierDRAM {
		far = float64(m.ReadBytes[sc.Far] + m.WriteBytes[sc.Far])
	}
	return InferRow{
		Scenario:  sc.Name,
		Far:       sc.Far.String(),
		TTFTp50:   m.TTFT.Median(),
		TTFTp99:   m.TTFT.P99(),
		TPOT:      m.TPOT.Mean(),
		Goodput:   m.Goodput,
		NearMB:    near * mb,
		FarMB:     far * mb,
		MigrateMB: float64(m.MigratedBytes) * mb,
	}
}

// InferJobs returns the section as one self-contained job: every scenario
// must serve the *same* request stream for the tier comparison to mean
// anything, and the only root-seed-deterministic value the scenarios can
// share is a single job's derived seed. Within the job the scenarios are
// independent serving simulations, so they fan out as sub-jobs over the
// pool; each closure-captures the job-resolved stream seed (the sub's own
// derived seed is deliberately unused) so the rows — and therefore the
// rendered section — are byte-identical to the inline loop.
func InferJobs(cfg InferConfig) []runner.Job {
	requests := cfg.requests()
	// Rough event credit per scenario: tokens × resident blocks × lines.
	perScenario := requests * 30 * 5 * 16
	return []runner.Job{{ID: "infer", Run: func(ctx *runner.Ctx) (any, error) {
		seed := ctx.Seed
		if cfg.Seed != 0 {
			seed = cfg.Seed
		}
		var subs []runner.SubJob
		for _, sc := range InferScenarios() {
			subs = append(subs, runner.SubJob{ID: sc.Name, Run: func(sctx *runner.Ctx) (any, error) {
				sctx.AddEvents(uint64(perScenario))
				return []InferRow{inferRow(sc, requests, seed, cfg.Trace)}, nil
			}})
		}
		return forkRows[InferRow](ctx, subs)
	}}}
}

// InferTrace records the request stream the infer section would serve
// under rootSeed and cfg — the record half of the section's record/replay:
// running the section with the returned trace in InferConfig.Trace (same
// rootSeed irrelevant) reproduces the exact same serving runs.
func InferTrace(rootSeed int64, cfg InferConfig) *workload.Trace {
	seed := cfg.Seed
	if seed == 0 {
		// The section is one job with ID "infer"; mirror the runner's
		// seed derivation (including its zero-means-default root seed) so
		// the recorded stream matches a live run.
		if rootSeed == 0 {
			rootSeed = runner.DefaultRootSeed
		}
		seed = rng.DeriveSeed(rootSeed, "infer")
	}
	return infer.GenTrace(infer.Config{Seed: seed, Requests: cfg.requests()})
}

// InferSection builds the infer section for cfg. Sections() registers the
// default configuration; this entry point exists for trace replay, where
// the caller substitutes a recorded stream for the generated one.
func InferSection(cfg InferConfig) Section {
	return section("infer", InferJobs(cfg), PrintInfer)
}

// Infer runs the section serially.
func Infer(cfg InferConfig) []InferRow {
	return collectRows[InferRow](runSerial(InferJobs(cfg)))
}

// PrintInfer renders the rows.
func PrintInfer(w io.Writer, rows []InferRow) {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Scenario, r.Far,
			fmtCell(r.TTFTp50), fmtCell(r.TTFTp99), fmtCell(r.TPOT),
			fmtCell(r.Goodput / 1000), fmtCell(r.NearMB), fmtCell(r.FarMB),
			fmtCell(r.MigrateMB),
		})
	}
	printTable(w, "LLM serving — paged KV-cache placement across memory tiers",
		[]string{"scenario", "far-tier", "TTFT-p50(us)", "TTFT-p99(us)", "TPOT(us)",
			"goodput(ktok/s)", "dram(MB)", "far(MB)", "migrated(MB)"}, table)
}

// InferFind locates a scenario's row.
func InferFind(rows []InferRow, scenario string) InferRow {
	for _, r := range rows {
		if r.Scenario == scenario {
			return r
		}
	}
	panic(fmt.Sprintf("experiments: no infer row %q", scenario))
}
