// Package runner executes experiment jobs on a bounded worker pool with
// shared-nothing semantics: every job constructs its own simulation engine
// and topology, so jobs never share mutable state and per-engine
// determinism is preserved while the suite scales with host cores.
//
// Three invariants make a parallel run indistinguishable from a serial
// one:
//
//   - per-job seeds derive from (root seed, job ID) through the
//     internal/rng registry — never from goroutine order — so a job sees
//     the same randomness whether it runs first on one worker or last on
//     sixteen;
//   - results are aggregated in job-submission order regardless of
//     completion order, so report output rendered from them is
//     byte-identical to the serial run;
//   - a panicking job is captured (value + stack) and converted into a
//     failed Result instead of killing its worker or the suite.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Job is one self-contained experiment: Run builds its own engine and
// topology, measures, and returns a typed result. ID doubles as the seed
// derivation path and the stats label, so it must be unique within a
// suite and stable across code motion (renaming an ID is a reseeding
// event for that job).
type Job struct {
	ID  string
	Run func(ctx *Ctx) (any, error)
}

// Ctx is the per-job context handed to Run.
type Ctx struct {
	// Seed is the job's derived seed: rng.DeriveSeed(rootSeed, jobID) for a
	// top-level job, rng.DeriveSeed(parentSeed, subID) for a sub-job.
	Seed int64
	// events accumulates the job's simulated work for the event-rate stat.
	events uint64
	// sem is the pool-wide CPU-slot semaphore Fork recruits helpers from;
	// nil in serial mode, where Fork runs sub-jobs inline.
	sem chan struct{}
}

// AddEvents records n simulated events (engine dispatches, or simulated
// accesses for engine-less microbenchmark rigs) attributable to this job.
func (c *Ctx) AddEvents(n uint64) { c.events += n }

// SubJob is one independent co-simulation inside a job: a slice scenario,
// an offload variant, a workload model. Like Job.ID, ID roots the sub-job's
// seed derivation (rng.DeriveSeed(parentSeed, subID)) and must be unique
// within one Fork call and stable across code motion.
type SubJob struct {
	ID  string
	Run func(ctx *Ctx) (any, error)
}

// Fork runs subs — independent co-simulations within the calling job — and
// returns their results in submission order. The determinism contract
// matches the top-level pool exactly:
//
//   - each sub-job's Ctx.Seed derives from (parent seed, sub ID), never
//     from scheduling order;
//   - results are merged in submission order, so output rendered from them
//     is byte-identical whether the subs ran inline or spread across the
//     pool;
//   - a panicking sub-job becomes a failed Result (Panicked=true) without
//     taking down its siblings or the parent.
//
// In serial mode (Workers == 1) the subs run inline on the calling
// goroutine. In parallel mode the parent works through the subs itself and
// opportunistically recruits helper goroutines, each holding one of the
// pool's CPU slots — the same slots top-level workers occupy — so total
// concurrency never exceeds Options.Workers: a saturated pool simply means
// the subs all run on the parent. Claiming a slot never blocks, so Fork cannot
// deadlock however jobs and sub-jobs are nested.
//
// After the subs complete, their simulated-event counts are folded into the
// parent's (see Result.Events), keeping suite event totals and rates
// truthful under intra-job parallelism.
func (c *Ctx) Fork(subs []SubJob) []Result {
	seen := make(map[string]struct{}, len(subs))
	for _, s := range subs {
		if _, dup := seen[s.ID]; dup {
			panic(fmt.Sprintf("runner: duplicate sub-job ID %q", s.ID))
		}
		seen[s.ID] = struct{}{}
	}

	results := make([]Result, len(subs))
	if c.sem == nil {
		for i := range subs {
			results[i] = runSub(c, subs[i], i)
		}
	} else {
		var next atomic.Int64
		work := func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(subs) {
					return
				}
				results[i] = runSub(c, subs[i], i)
			}
		}
		var wg sync.WaitGroup
		for n := 1; n < len(subs); n++ {
			select {
			case c.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer func() { <-c.sem; wg.Done() }()
					work()
				}()
				continue
			default:
			}
			break // pool saturated: the parent covers the rest
		}
		work()
		wg.Wait()
	}

	for i := range results {
		c.events += results[i].Events
	}
	return results
}

// runSub executes a single sub-job on a child Ctx, converting a panic into
// a failed Result exactly as runOne does for top-level jobs.
func runSub(parent *Ctx, s SubJob, index int) (res Result) {
	ctx := &Ctx{Seed: rng.DeriveSeed(parent.Seed, s.ID), sem: parent.sem}
	res = Result{ID: s.ID, Index: index}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		res.Events = ctx.events
		if r := recover(); r != nil {
			res.Value = nil
			res.Panicked = true
			res.Err = fmt.Errorf("runner: sub-job %q panicked: %v\n%s", s.ID, r, debug.Stack())
		}
	}()
	res.Value, res.Err = s.Run(ctx)
	return res
}

// Result is one job's outcome in submission order.
type Result struct {
	ID    string
	Index int
	// Value is Run's typed result; nil when the job failed.
	Value any
	// Err is Run's error, or the captured panic (with stack) for a
	// crashed job.
	Err error
	// Panicked distinguishes a captured panic from an ordinary error.
	Panicked bool
	// Cancelled marks a job that was never dispatched because
	// Options.Context was done; Err then wraps the context's error.
	Cancelled bool
	// Wall is the job's host wall-clock duration.
	Wall time.Duration
	// Events is the job's simulated-event count (see Ctx.AddEvents).
	Events uint64
}

// EventsPerSec reports the job's simulated-event rate against host
// wall-clock time, or 0 when nothing was recorded.
func (r Result) EventsPerSec() float64 {
	if r.Events == 0 || r.Wall <= 0 {
		return 0
	}
	return float64(r.Events) / r.Wall.Seconds()
}

// Options shapes a Run.
type Options struct {
	// Workers bounds the pool; <= 0 takes GOMAXPROCS. 1 is the serial
	// mode: jobs run on the calling goroutine in submission order.
	Workers int
	// RootSeed roots every job's derived seed.
	RootSeed int64
	// Context, when non-nil, bounds the run: once it is done, jobs not
	// yet dispatched are skipped and marked failed (Cancelled=true,
	// Err wrapping ctx.Err()) while in-flight jobs run to completion.
	// Aggregation order is unaffected — result i always describes job i.
	// nil means run everything (context.Background()).
	Context context.Context
}

// DefaultRootSeed is the root seed used when a caller leaves
// Options.RootSeed zero, chosen to match the repository's other
// single-integer reproducibility knobs (fuzzer, Fig. 8) which default
// to 1.
const DefaultRootSeed int64 = 1

// Effective returns the options with defaults resolved — the worker count
// and root seed Run will actually use. Callers recording run metadata
// (e.g. the stats JSON) use this rather than re-deriving the defaults.
func (o Options) Effective() Options {
	o.setDefaults()
	return o
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.RootSeed == 0 {
		o.RootSeed = DefaultRootSeed
	}
}

// Run executes jobs and returns their results indexed and ordered by
// submission position. Duplicate job IDs are a programmer error (they
// would alias seeds) and panic before any job starts.
func Run(jobs []Job, opts Options) []Result {
	opts.setDefaults()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]struct{}, len(jobs))
	for _, j := range jobs {
		if _, dup := seen[j.ID]; dup {
			panic(fmt.Sprintf("runner: duplicate job ID %q", j.ID))
		}
		seen[j.ID] = struct{}{}
	}

	results := make([]Result, len(jobs))
	if opts.Workers == 1 {
		for i := range jobs {
			if err := ctx.Err(); err != nil {
				cancelFrom(results, jobs, i, err)
				return results
			}
			results[i] = runOne(jobs[i], i, opts.RootSeed, nil)
		}
		return results
	}

	// sem holds one token per CPU slot. A top-level worker occupies a slot
	// for each job it runs; Ctx.Fork recruits helper goroutines from the
	// remaining slots (idle workers hold no token), so top-level jobs and
	// intra-job sub-jobs together never exceed Workers concurrent
	// simulations.
	sem := make(chan struct{}, opts.Workers)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sem <- struct{}{}
				results[i] = runOne(jobs[i], i, opts.RootSeed, sem)
				<-sem
			}
		}()
	}
	done := ctx.Done()
dispatch:
	for i := range jobs {
		// Poll first so cancellation wins over a ready worker: once the
		// context is done, at most the send already in flight dispatches.
		if err := ctx.Err(); err != nil {
			cancelFrom(results, jobs, i, err)
			break dispatch
		}
		select {
		case <-done:
			cancelFrom(results, jobs, i, ctx.Err())
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// cancelFrom marks jobs[from:] as cancelled with cause. The entries are
// written before the worker pool is drained, which is safe: an index is
// either dispatched (a worker owns its result slot) or cancelled here,
// never both.
func cancelFrom(results []Result, jobs []Job, from int, cause error) {
	for i := from; i < len(jobs); i++ {
		results[i] = Result{
			ID:        jobs[i].ID,
			Index:     i,
			Cancelled: true,
			Err:       fmt.Errorf("runner: job %q cancelled: %w", jobs[i].ID, cause),
		}
	}
}

// CancelledCount reports how many results were cancelled before dispatch.
func CancelledCount(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Cancelled {
			n++
		}
	}
	return n
}

// runOne executes a single job, converting a panic into a failed Result.
func runOne(j Job, index int, rootSeed int64, sem chan struct{}) (res Result) {
	ctx := &Ctx{Seed: rng.DeriveSeed(rootSeed, j.ID), sem: sem}
	res = Result{ID: j.ID, Index: index}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		res.Events = ctx.events
		if r := recover(); r != nil {
			res.Value = nil
			res.Panicked = true
			res.Err = fmt.Errorf("runner: job %q panicked: %v\n%s", j.ID, r, debug.Stack())
		}
	}()
	res.Value, res.Err = j.Run(ctx)
	return res
}

// Values extracts the job results in order, returning the first failure
// encountered (if any) so callers can render partial output or abort.
func Values(results []Result) ([]any, error) {
	vals := make([]any, len(results))
	var firstErr error
	for i, r := range results {
		vals[i] = r.Value
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("job %q: %w", r.ID, r.Err)
		}
	}
	return vals, firstErr
}
