package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// record is what one repetition reports to the driver: end-to-end
// timings, the digest of its rendered simulated output, operation counts,
// request latencies and, when traced, per-layer values and spans.
type record struct {
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// WorkS is the part of WallS after setup: first dispatch (or first
	// healthy /healthz) to the end of the work.
	WorkS     float64            `json:"work_s"`
	CPUS      float64            `json:"cpu_s"`
	RSSMB     float64            `json:"rss_mb"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	ReqMS     []float64          `json:"req_ms"`
	HitMS     []float64          `json:"hit_ms,omitempty"`
	MissMS    []float64          `json:"miss_ms,omitempty"`
	Bodies    map[string]string  `json:"bodies,omitempty"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	// CalWallS and CalCPUS time the calibration kernel, run after the
	// work and outside every other measurement.
	CalWallS float64 `json:"cal_wall_s"`
	CalCPUS  float64 `json:"cal_cpu_s"`
	Spans    []Span  `json:"spans,omitempty"`
}

// rep is one repetition in progress, in its own process.
type rep struct {
	seed  int64
	tr    *tracer
	spawn time.Time // when the driver started this process

	once       sync.Once
	dispatched time.Time // first job dispatch or first healthy /healthz
	runSpan    int       // span of the runner.Run call in progress

	mu  sync.Mutex
	rec record
	out bytes.Buffer // rendered simulated output
}

func newRep(seed int64, traced bool, spawn time.Time) *rep {
	return &rep{seed: seed, tr: newTracer(traced), spawn: spawn,
		rec: record{Layer: map[string]float64{}, Bodies: map[string]string{}}}
}

// ready stamps the end of set-up; only the first call counts.
func (r *rep) ready() { r.once.Do(func() { r.dispatched = time.Now() }) }

// add accumulates a per-layer value.
func (r *rep) add(name string, v float64) {
	r.mu.Lock()
	r.rec.Layer[name] += v
	r.mu.Unlock()
}

// op counts one attempted operation and records why it failed, if it did.
func (r *rep) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rec.Attempted++
	if err != nil {
		r.rec.Failed++
		if len(r.rec.Failures) < 8 {
			r.rec.Failures = append(r.rec.Failures, err.Error())
		}
	}
}

// request records one request latency.
func (r *rep) request(d time.Duration) {
	r.mu.Lock()
	r.rec.ReqMS = append(r.rec.ReqMS, ms(d))
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// groupOf is the runner's job group: the job ID up to the first '/'.
func groupOf(id string) string {
	g, _, _ := strings.Cut(id, "/")
	return g
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// wrap makes each job stamp the first dispatch and run inside a span.
func (r *rep) wrap(jobs []runner.Job) []runner.Job {
	out := make([]runner.Job, len(jobs))
	for i, j := range jobs {
		j := j
		out[i] = runner.Job{ID: j.ID, Run: func(ctx *runner.Ctx) (v any, err error) {
			r.ready()
			r.tr.do("job:"+j.ID, r.runSpan, func(int) { v, err = j.Run(ctx) })
			return v, err
		}}
	}
	return out
}

// runJobs calls runner.Run on one job group and accounts its jobs: one
// operation each, job time and simulated events per group, and the heap
// allocated during the call. jobsAreRequests makes each job one request
// sample.
func (r *rep) runJobs(jobs []runner.Job, workers int, root int64, jobsAreRequests bool) []runner.Result {
	var results []runner.Result
	a0 := allocBytes()
	r.tr.do("runner.Run", 0, func(id int) {
		r.runSpan = id
		results = runner.Run(jobs, runner.Options{Workers: workers, RootSeed: root})
	})
	group := groupOf(jobs[0].ID)
	r.add("alloc_mb."+group, float64(allocBytes()-a0)/(1<<20))
	for _, res := range results {
		g := groupOf(res.ID)
		r.add("runner.job_ms."+g, ms(res.Wall))
		r.add("sim.events."+g, float64(res.Events))
		if jobsAreRequests {
			r.request(res.Wall)
		}
		r.op(res.Err)
	}
	return results
}

// render runs a section renderer into the repetition's output.
func (r *rep) render(name string, f func(*bytes.Buffer) error) {
	var err error
	r.tr.do("render:"+name, 0, func(int) { err = f(&r.out) })
	if err != nil {
		err = fmt.Errorf("render %s: %w", name, err)
	}
	r.op(err)
}

// sections runs the named sections serially, once per root seed, in the
// order given, rendering each after its jobs finish. perPass makes one
// pass over all sections for one root seed a request sample; otherwise
// each job is one.
func (r *rep) sections(reps int, names []string, roots []int64, perPass bool) {
	var secs []experiments.Section
	r.tr.do("experiments.Sections", 0, func(int) {
		all := experiments.Sections(reps)
		for _, n := range names {
			s, ok := experiments.SectionByName(all, n)
			if !ok {
				panic("perfbench: unknown section " + n)
			}
			secs = append(secs, s)
		}
	})
	for i := range secs {
		secs[i].Jobs = r.wrap(secs[i].Jobs)
	}
	for _, root := range roots {
		start := time.Now()
		for _, s := range secs {
			results := r.runJobs(s.Jobs, 1, root, !perPass)
			r.render(s.Name, func(b *bytes.Buffer) error { return s.Render(b, results) })
		}
		if perPass {
			r.request(time.Since(start))
		}
	}
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
