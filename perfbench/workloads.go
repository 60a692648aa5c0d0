package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// workload is one input set of the benchmark: run executes one
// repetition in a child process; check, when set, re-derives reference
// output in the driver and compares it with the repetitions' digests,
// returning one error per failed comparison and the comparisons made.
type workload struct {
	name string
	// workers is how many simulations the workload runs at once: the
	// runner pool size of its runner.Run calls, and the GOMAXPROCS of its
	// repetition processes. On the 2-vCPU virtual machine the benchmark
	// was sized on, a second, mostly idle P made the serial workloads
	// slower and noisier (device: raw wall 0.61-0.80 s at GOMAXPROCS=2
	// against 0.43-0.44 s at 1), because GC stop-the-world pauses and
	// goroutine handoffs must wake the idle vCPU.
	workers int
	run     func(r *rep)
	check   func(seed int64, recs []record) (attempted int, failures []error)
}

var workloads = []workload{
	{name: "device", workers: 1, run: runDevice},
	{name: "traffic", workers: 1, run: runTraffic},
	{name: "kvs", workers: kvsWorkers, run: runKvs, check: checkKvs},
	{name: "serve", workers: serveWorkers, run: runServe, check: checkServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// device: the §V sections on many short-lived rigs. deviceReps sizes
// Figs. 3–5, whose cost is linear in it; the other sections are fixed.
// Which cells take longest depends on the seed, so a repetition covers
// deviceSeeds root seeds derived from the run seed.
const (
	deviceReps  = 2500
	deviceSeeds = 4
)

var deviceSections = []string{"table3", "fig3", "fig4", "fig5", "fig6", "wqsweep"}

func runDevice(r *rep) {
	r.sections(deviceReps, deviceSections, derivedSeeds(r.seed, "device", deviceSeeds), false)
}

// derivedSeeds returns n root seeds derived from the run seed.
func derivedSeeds(seed int64, workload string, n int) []int64 {
	roots := make([]int64, n)
	for i := range roots {
		roots[i] = rng.DeriveSeed(seed, fmt.Sprintf("perfbench/%s/%d", workload, i))
	}
	return roots
}

// traffic: the traffic-library, LLM-serving and cluster sections at
// their default sizes. Their request counts are clamped, so a repetition
// scales by covering trafficSeeds root seeds derived from the run seed;
// averaging over seeds also keeps the seed-to-seed work spread small.
// A request is one pass over the three sections for one seed, what
// `cxlbench -seed S workload infer cluster` runs: the jobs themselves
// come in three sizes, and their percentiles would only say which size
// sits at the percentile.
const (
	trafficReps  = 0
	trafficSeeds = 8
)

var trafficSections = []string{"workload", "infer", "cluster"}

func runTraffic(r *rep) {
	r.sections(trafficReps, trafficSections, derivedSeeds(r.seed, "traffic", trafficSeeds), true)
}

// kvs: the Fig. 8 co-simulations on YCSB A with shortened horizons. ksm
// merges from the start; zswap needs 100 ms before reclaim begins
// swapping, so each feature has its own horizon.
const kvsWorkers = 2

// kvsFeature is one Fig. 8 kernel feature as the workload runs it.
type kvsFeature struct {
	name    string
	horizon sim.Time
	diag    func(experiments.Fig8Variant, ycsb.Workload, experiments.Fig8Config) (experiments.Fig8Row, experiments.Fig8Diag)
}

var kvsFeatures = []kvsFeature{
	{"ksm", 60 * sim.Millisecond, experiments.Fig8KsmDiag},
	{"zswap", 100 * sim.Millisecond, experiments.Fig8ZswapDiag},
}

// runKvs runs one job per feature, each forking the five variant
// co-simulations, on kvsWorkers workers. Job and sub-job IDs match
// experiments.Fig8Jobs, so seeds, and therefore bytes, match its serial
// render, which checkKvs compares against.
func runKvs(r *rep) {
	var jobs []runner.Job
	for _, f := range kvsFeatures {
		f := f
		id := fmt.Sprintf("fig8/%s/%s", f.name, ycsb.A)
		jobs = append(jobs, runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
			r.ready()
			var rows []experiments.Fig8Row
			var err error
			r.tr.do("job:"+id, r.runSpan, func(jobSpan int) {
				var subs []runner.SubJob
				for _, v := range experiments.Fig8Variants() {
					v := v
					subs = append(subs, runner.SubJob{ID: v.String(), Run: func(sctx *runner.Ctx) (any, error) {
						return []experiments.Fig8Row{r.variant(f, v, sctx, jobSpan)}, nil
					}})
				}
				for _, res := range ctx.Fork(subs) {
					if res.Err != nil {
						err = res.Err
						return
					}
					rows = append(rows, res.Value.([]experiments.Fig8Row)...)
				}
			})
			return rows, err
		}})
	}
	results := r.runJobs(jobs, kvsWorkers, r.seed, false)
	for i, f := range kvsFeatures {
		r.render("fig8/"+f.name, func(b *bytes.Buffer) error {
			if err := results[i].Err; err != nil {
				return err
			}
			experiments.PrintFig8(b, experiments.Fig8Collect(results[i:i+1]))
			return nil
		})
	}
}

// variant runs one Fig. 8 co-simulation as one request and accounts its
// diagnostics.
func (r *rep) variant(f kvsFeature, v experiments.Fig8Variant, sctx *runner.Ctx, parent int) experiments.Fig8Row {
	var row experiments.Fig8Row
	var d experiments.Fig8Diag
	start := time.Now()
	r.tr.do("fig8:"+f.name+"/"+v.String(), parent, func(int) {
		row, d = f.diag(v, ycsb.A, experiments.Fig8Config{Duration: f.horizon, Seed: sctx.Seed})
	})
	el := time.Since(start)
	sctx.AddEvents(d.EngineEvents)
	r.request(el)
	r.add("offload.variant_ms."+v.String(), ms(el))
	r.add("kernel.swap_outs", float64(d.SwapOuts))
	r.add("kernel.major_faults", float64(d.MajorFaults))
	r.add("kernel.writebacks", float64(d.Writebacks))
	r.add("kernel.backing_loads", float64(d.BackingLoads))
	r.add("kvs.served_ops", float64(row.Served))
	var err error
	if !row.VerifyOK {
		err = fmt.Errorf("fig8 %s/%s: VerifyOK=false", f.name, v)
	}
	r.op(err)
	return row
}

// checkKvs renders the same co-simulations through experiments.Fig8Jobs
// on one worker and compares the bytes with every repetition's.
func checkKvs(seed int64, recs []record) (int, []error) {
	var jobs []runner.Job
	for _, f := range kvsFeatures {
		jobs = append(jobs, experiments.Fig8Jobs(f.name, []ycsb.Workload{ycsb.A},
			experiments.Fig8Config{Duration: f.horizon})...)
	}
	results := runner.Run(jobs, runner.Options{Workers: 1, RootSeed: seed})
	var b bytes.Buffer
	for i := range kvsFeatures {
		if err := results[i].Err; err != nil {
			return 1, []error{fmt.Errorf("serial fig8 reference: %w", err)}
		}
		experiments.PrintFig8(&b, experiments.Fig8Collect(results[i:i+1]))
	}
	want := digest(b.Bytes())
	var errs []error
	for i, rec := range recs {
		if rec.Digest != want {
			errs = append(errs, fmt.Errorf("kvs repetition %d at %d workers differs from the serial render", i, kvsWorkers))
		}
	}
	return len(recs), errs
}
