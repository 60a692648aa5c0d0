package experiments

import (
	"fmt"
	"io"

	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The workload section characterizes the traffic library itself: the
// temporal arrival models (stationary Poisson, a diurnal rate curve, the
// same curve with burst/cooldown modulation) and the client-cohort mixture
// the serving workloads draw shapes from. Each arrival model's stream is
// also frozen into the versioned trace format and replayed; the replay row
// must reproduce the recorded row exactly (same stats, same content hash),
// which pins the record/replay contract in the rendered report — and the
// report renders byte-identically in serial and parallel suite runs like
// every other section.

// WorkloadConfig tunes the workload section.
type WorkloadConfig struct {
	// Reps scales the per-model request count (Requests = 32*Reps clamped
	// to [512, 8192]); 0 keeps the default of 2048.
	Reps int
	// Seed overrides the stream seed; 0 uses the job's derived seed.
	Seed int64
}

func (c WorkloadConfig) requests() int {
	if c.Reps == 0 {
		return 2048
	}
	n := 32 * c.Reps
	if n < 512 {
		n = 512
	}
	if n > 8192 {
		n = 8192
	}
	return n
}

// WorkloadRow is one row of the section: an arrival model's realized
// stream (Kind "arrival") or a cohort's realized mixture share and shape
// (Kind "cohort").
type WorkloadRow struct {
	Kind     string
	Name     string
	Requests int
	// Arrival-model columns.
	SpanSec   float64 // first arrival to last
	MeanRate  float64 // requests/s over the span
	PeakRate  float64 // peak over 1-second buckets
	TraceHash string  // content hash of the canonical trace encoding
	// Cohort columns.
	SharePct   float64
	MeanPrompt float64
	MeanDecode float64
}

// workloadCurve is the section's diurnal profile: a 4-second "day" with a
// quiet valley, a morning ramp and an evening peak — fast enough to cycle
// several times inside the measured stream.
func workloadCurve() workload.RateCurve {
	return workload.MustNewRateCurve(4*sim.Second,
		workload.RatePoint{At: 0, RatePerSec: 200},
		workload.RatePoint{At: 1 * sim.Second, RatePerSec: 1200},
		workload.RatePoint{At: 2 * sim.Second, RatePerSec: 600},
		workload.RatePoint{At: 3 * sim.Second, RatePerSec: 1600},
	)
}

// workloadBursts is the section's burst overlay: short thundering herds a
// few times per simulated second, each followed by a cooled-off lull.
func workloadBursts() workload.BurstSpec {
	return workload.BurstSpec{
		MeanGap:    800 * sim.Millisecond,
		MeanLen:    60 * sim.Millisecond,
		Factor:     4,
		Cooldown:   100 * sim.Millisecond,
		CoolFactor: 0.25,
	}
}

// WorkloadCohorts is the section's client mixture: interactive chat,
// long-prompt RAG and batch scoring, the three populations serving
// deployments plan for.
func WorkloadCohorts() *workload.Mix {
	return workload.MustNewMix(
		workload.Cohort{Name: "chat", Weight: 6, PromptMin: 16, PromptMax: 96, DecodeMin: 32, DecodeMax: 256},
		workload.Cohort{Name: "rag", Weight: 3, PromptMin: 512, PromptMax: 2048, DecodeMin: 16, DecodeMax: 64},
		workload.Cohort{Name: "batch", Weight: 1, PromptMin: 128, PromptMax: 512, DecodeMin: 8, DecodeMax: 16},
	)
}

// recordArrivals freezes n arrivals from src into a trace.
func recordArrivals(src workload.ArrivalSource, seed int64, n int, label string) *workload.Trace {
	r := rng.New(seed)
	t := &workload.Trace{Workload: label, Seed: seed, Requests: make([]workload.Request, n)}
	now := sim.Time(0)
	for i := 0; i < n; i++ {
		gap := src.GapAt(r, now)
		if now > sim.Forever-gap {
			now = sim.Forever
		} else {
			now += gap
		}
		t.Requests[i].At = now
	}
	return t
}

// arrivalRow reduces a trace's arrival times to a section row.
func arrivalRow(name string, t *workload.Trace) WorkloadRow {
	row := WorkloadRow{Kind: "arrival", Name: name, Requests: len(t.Requests),
		TraceHash: fmt.Sprintf("%016x", t.Hash())}
	if len(t.Requests) == 0 {
		return row
	}
	first := t.Requests[0].At
	last := t.Requests[len(t.Requests)-1].At
	span := last - first
	if span > 0 {
		row.SpanSec = float64(span) / float64(sim.Second)
		row.MeanRate = float64(len(t.Requests)-1) / row.SpanSec
	}
	// Peak rate over fixed 1-second buckets from the first arrival.
	counts := map[int64]int{}
	for _, r := range t.Requests {
		counts[int64((r.At-first)/sim.Second)]++
	}
	for _, c := range counts {
		if float64(c) > row.PeakRate {
			row.PeakRate = float64(c)
		}
	}
	return row
}

// cohortRows draws n shape samples from the mixture and reduces them to
// per-cohort realized shares and mean shapes.
func cohortRows(mix *workload.Mix, seed int64, n int) []WorkloadRow {
	r := rng.Derive(seed, "workload/cohorts")
	type acc struct {
		count          int
		prompt, decode int
	}
	accs := make([]acc, mix.Len())
	// Each cohort's shape Zipfs are built once, outside the sample loop:
	// NewZipf sums ζ over up to n terms and consumes no randomness.
	pzs := make([]*workload.Zipf, mix.Len())
	dzs := make([]*workload.Zipf, mix.Len())
	for c := range pzs {
		co := mix.Cohort(c)
		pzs[c] = workload.NewZipf(uint64(co.PromptMax-co.PromptMin+1), 0.99)
		dzs[c] = workload.NewZipf(uint64(co.DecodeMax-co.DecodeMin+1), 0.99)
	}
	for i := 0; i < n; i++ {
		c := mix.Pick(r)
		co := mix.Cohort(c)
		pz, dz := pzs[c], dzs[c]
		accs[c].count++
		accs[c].prompt += co.PromptMin + int(pz.Next(r)%pz.N())
		accs[c].decode += co.DecodeMin + int(dz.Next(r)%dz.N())
	}
	rows := make([]WorkloadRow, mix.Len())
	for i := range rows {
		a := accs[i]
		rows[i] = WorkloadRow{Kind: "cohort", Name: mix.Cohort(i).Name, Requests: a.count,
			SharePct: 100 * float64(a.count) / float64(n)}
		if a.count > 0 {
			rows[i].MeanPrompt = float64(a.prompt) / float64(a.count)
			rows[i].MeanDecode = float64(a.decode) / float64(a.count)
		}
	}
	return rows
}

// WorkloadJobs returns the section as one self-contained job (all rows
// share one derived seed, like the infer section). The three arrival
// models and the cohort reduction are independent streams — each already
// derives its own sub-seed from the shared one — so they fan out as
// sub-jobs over the pool; every sub closure-captures the job-resolved seed
// and the merged rows are byte-identical to the inline loop. The replay
// round-trip rides in the diurnal+burst sub-job because it must re-decode
// that sub's recorded trace.
func WorkloadJobs(cfg WorkloadConfig) []runner.Job {
	n := cfg.requests()
	return []runner.Job{{ID: "workload", Run: func(ctx *runner.Ctx) (any, error) {
		seed := ctx.Seed
		if cfg.Seed != 0 {
			seed = cfg.Seed
		}
		curve := workloadCurve()
		peak := curve.MaxRate()
		arrivalSub := func(name string, src workload.ArrivalSource, withReplay bool) runner.SubJob {
			ops := n
			if withReplay {
				ops = 2 * n
			}
			return runner.SubJob{ID: name, Run: func(sctx *runner.Ctx) (any, error) {
				sctx.AddEvents(uint64(ops))
				t := recordArrivals(src, rng.DeriveSeed(seed, "workload/"+name), n, name)
				rows := []WorkloadRow{arrivalRow(name, t)}
				if withReplay {
					// Round-trip the burstiest stream through the binary
					// format and reduce the decoded records: the replay row
					// must match its source row column for column, hash
					// included.
					replayed, err := workload.DecodeTrace(t.Encode())
					if err != nil {
						return nil, err
					}
					rows = append(rows, arrivalRow("replay(burst)", replayed))
				}
				return rows, nil
			}}
		}
		subs := []runner.SubJob{
			arrivalSub("poisson", workload.Poisson{RatePerSec: peak / 2}, false),
			arrivalSub("diurnal", workload.NewTemporal(curve), false),
			arrivalSub("diurnal+burst", workload.NewTemporal(curve).WithBursts(workloadBursts()), true),
			{ID: "cohorts", Run: func(sctx *runner.Ctx) (any, error) {
				sctx.AddEvents(uint64(n))
				return cohortRows(WorkloadCohorts(), seed, n), nil
			}},
		}
		return forkRows[WorkloadRow](ctx, subs)
	}}}
}

// Workload runs the section serially.
func Workload(cfg WorkloadConfig) []WorkloadRow {
	return collectRows[WorkloadRow](runSerial(WorkloadJobs(cfg)))
}

// PrintWorkload renders the arrival-model and cohort tables.
func PrintWorkload(w io.Writer, rows []WorkloadRow) {
	var arr, coh [][]string
	for _, r := range rows {
		switch r.Kind {
		case "arrival":
			arr = append(arr, []string{r.Name, fmt.Sprintf("%d", r.Requests),
				fmtCell(r.SpanSec), fmtCell(r.MeanRate), fmtCell(r.PeakRate), r.TraceHash})
		case "cohort":
			coh = append(coh, []string{r.Name, fmtCell(r.SharePct),
				fmtCell(r.MeanPrompt), fmtCell(r.MeanDecode)})
		}
	}
	printTable(w, "Workload traffic library — temporal arrival models (recorded vs replayed)",
		[]string{"model", "requests", "span(s)", "mean(req/s)", "peak(req/s)", "trace-hash"}, arr)
	printTable(w, "Workload traffic library — client cohort mixture",
		[]string{"cohort", "share(%)", "prompt(tok)", "decode(tok)"}, coh)
}
