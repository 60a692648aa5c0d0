package experiments

import (
	"fmt"
	"io"

	"repro/internal/runner"
)

// This file is the experiment registry: every figure and table of the
// paper's evaluation decomposed into self-contained runner jobs (one rig
// or co-simulation per job, nothing shared), plus the section list the
// commands fan out over a worker pool. The serial drivers (Fig3, Fig4, …)
// run the very same jobs on one worker, so parallel and serial runs share
// a single enumeration and produce byte-identical output for the same
// root seed.

// cellJob wraps one measurement cell as a runner job: the cell receives
// the job's derived seed and returns one typed row; ops is the simulated
// access count credited to the event-rate stat (the microbenchmark rigs
// have no central event queue, so accesses are the honest unit).
func cellJob[T any](id string, ops int, cell func(seed int64) T) runner.Job {
	return runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
		ctx.AddEvents(uint64(ops))
		return []T{cell(ctx.Seed)}, nil
	}}
}

// sliceJob wraps a cell producing several rows at once (e.g. one Fig. 6
// mechanism across all sizes).
func sliceJob[T any](id string, ops int, cell func(seed int64) []T) runner.Job {
	return runner.Job{ID: id, Run: func(ctx *runner.Ctx) (any, error) {
		ctx.AddEvents(uint64(ops))
		return cell(ctx.Seed), nil
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

// runSerial executes jobs on one worker under the default root seed — the
// legacy serial drivers are this plus a collect.
func runSerial(jobs []runner.Job) []runner.Result {
	return runner.Run(jobs, runner.Options{Workers: 1})
}

// collectRows concatenates the per-job []T fragments in job order. A
// failed job's fragment is skipped; the suite-level callers surface the
// error through runner.Values before rendering.
func collectRows[T any](results []runner.Result) []T {
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
			print(w, collectRows[T](results))
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
