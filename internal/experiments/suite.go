package experiments

import (
	"fmt"
	"io"

	"repro/internal/runner"
	"repro/internal/ycsb"
)

// This file is the experiment registry: every figure and table of the
// paper's evaluation decomposed into self-contained runner jobs (one rig
// or co-simulation per job, nothing shared), grouped into the sections
// that every command, the report and the service run through one worker
// pool. There is no other path to an experiment's rows, so a run on one
// worker and a run on many produce byte-identical output for the same
// root seed.

// cellJob wraps one measurement cell as a runner job returning one typed
// row; ops is the simulated access count credited to the event-rate stat
// (the microbenchmark rigs have no central event queue, so accesses are
// the honest unit). The §V cells draw no randomness, so they ignore the
// job's derived seed.
func cellJob[T any](id string, ops int, cell func() T) runner.Job {
	return runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
		ctx.AddEvents(uint64(ops))
		return []T{cell()}, nil
	}}
}

// sliceJob wraps a cell producing several rows at once (e.g. one Fig. 6
// mechanism across all sizes).
func sliceJob[T any](id string, ops int, cell func() []T) runner.Job {
	return runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
		ctx.AddEvents(uint64(ops))
		return cell(), nil
	}}
}

// forkRows fans subs out through ctx.Fork — intra-job parallelism for the
// big slice sections — and concatenates their []T fragments in submission
// order, surfacing the first sub-job failure (captured panics included) as
// the job's error. Because Fork merges in submission order and every sub's
// randomness is resolved from seeds rather than scheduling, the
// concatenation is byte-identical to running the cells inline.
func forkRows[T any](ctx *runner.Ctx, subs []runner.SubJob) ([]T, error) {
	var rows []T
	for _, r := range ctx.Fork(subs) {
		if r.Err != nil {
			return nil, r.Err
		}
		if frag, ok := r.Value.([]T); ok {
			rows = append(rows, frag...)
		}
	}
	return rows, nil
}

// CollectRows concatenates the per-job []T fragments in job order. A
// failed job's fragment is skipped; renderers surface the error through
// runner.Values before collecting.
func CollectRows[T any](results []runner.Result) []T {
	var rows []T
	for _, r := range results {
		if frag, ok := r.Value.([]T); ok {
			rows = append(rows, frag...)
		}
	}
	return rows
}

// Section is one rendered block of experiment output: the jobs that
// produce its rows and the renderer that assembles them, in job order,
// into the block. Render must not depend on anything but the passed
// results — sections from one suite run can be rendered in any order.
type Section struct {
	Name   string
	Jobs   []runner.Job
	Render func(w io.Writer, results []runner.Result) error
}

// section builds a Section whose renderer collects []T fragments and
// prints them with the figure's printer.
func section[T any](name string, jobs []runner.Job, print func(io.Writer, []T)) Section {
	return Section{
		Name: name,
		Jobs: jobs,
		Render: func(w io.Writer, results []runner.Result) error {
			if _, err := runner.Values(results); err != nil {
				return err
			}
			print(w, CollectRows[T](results))
			return nil
		},
	}
}

// Sections returns the cxlbench experiment sections in presentation
// order. reps tunes the repetition count of the experiments that take one
// (0 keeps the paper's defaults).
func Sections(reps int) []Section {
	f3 := Fig3Config{Reps: reps}
	f4 := Fig4Config{Reps: reps}
	f5 := Fig5Config{Reps: reps}
	return []Section{
		section("table3", Table3Jobs(), PrintTable3),
		section("fig3", Fig3Jobs(f3), PrintFig3),
		section("fig4", Fig4Jobs(f4), PrintFig4),
		section("fig5", Fig5Jobs(f5), PrintFig5),
		section("fig6", Fig6Jobs(), PrintFig6),
		section("wqsweep", WriteQueueSweepJobs(nil), PrintWriteQueueSweep),
		section("infer", InferJobs(InferConfig{Reps: reps}), PrintInfer),
		section("workload", WorkloadJobs(WorkloadConfig{Reps: reps}), PrintWorkload),
		section("cluster", ClusterJobs(ClusterConfig{Reps: reps}), PrintCluster),
	}
}

// KernelSections returns the end-to-end kernel-feature sections of
// §VI–VII in presentation order: table4 (the offload latency breakdown),
// fig8 (Redis p99 under each feature's variants, one block per feature)
// and cycles (the §VII host-CPU-cycle and LLC-pollution analysis, one
// block per feature on the first workload). nil workloads take all of
// A–D. A zero cfg.Seed derives every co-simulation's seed from the root
// seed; kvsbench pins it to SeedFig8Calibrated.
func KernelSections(features []string, workloads []ycsb.Workload, cfg Fig8Config) []Section {
	if len(workloads) == 0 {
		workloads = ycsb.Workloads()
	}
	return []Section{
		section("table4", Table4Jobs(), PrintTable4),
		fig8Section("fig8", features, workloads, cfg, PrintFig8),
		fig8Section("cycles", features, workloads[:1], cfg, printCycles),
	}
}

// fig8Section builds a section of Fig. 8 co-simulations, one job per
// (feature, workload) under IDs prefixed with name, rendering one block
// per feature from the baseline-normalized rows.
func fig8Section(name string, features []string, workloads []ycsb.Workload, cfg Fig8Config,
	print func(io.Writer, []Fig8Row)) Section {
	var jobs []runner.Job
	for _, f := range features {
		jobs = append(jobs, fig8Jobs(name, f, workloads, cfg)...)
	}
	return Section{
		Name: name,
		Jobs: jobs,
		Render: func(w io.Writer, results []runner.Result) error {
			if _, err := runner.Values(results); err != nil {
				return err
			}
			for n := len(workloads); len(results) > 0; results = results[n:] {
				print(w, Fig8Collect(results[:n]))
			}
			return nil
		},
	}
}

// SectionNames lists the registered section names in presentation order —
// the single source the commands derive their usage text and section
// validation from, so the list can never drift from the registry again.
func SectionNames() []string {
	secs := Sections(0)
	names := make([]string, len(secs))
	for i, s := range secs {
		names[i] = s.Name
	}
	return names
}

// SectionByName locates a section.
func SectionByName(secs []Section, name string) (Section, bool) {
	for _, s := range secs {
		if s.Name == name {
			return s, true
		}
	}
	return Section{}, false
}

// RunSections executes the given sections' jobs on one shared pool (the
// fine-grained cells load-balance across workers better than one pool per
// section would) and renders each section in order. It returns the
// per-job results for stats reporting.
func RunSections(w io.Writer, secs []Section, opts runner.Options) ([]runner.Result, error) {
	var jobs []runner.Job
	for _, s := range secs {
		jobs = append(jobs, s.Jobs...)
	}
	results := runner.Run(jobs, opts)
	off := 0
	var firstErr error
	for _, s := range secs {
		if err := s.Render(w, results[off:off+len(s.Jobs)]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("section %s: %w", s.Name, err)
		}
		off += len(s.Jobs)
	}
	return results, firstErr
}
