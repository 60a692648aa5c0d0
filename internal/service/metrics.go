package service

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/runner"
)

// Service metrics: request counts by status code, per-section latency
// aggregates, and the runner's sim-event accounting rolled up across all
// served jobs. Everything renders to the Prometheus text exposition
// format in deterministic (sorted-label) order so two scrapes of an idle
// server produce identical bytes.

type sectionLatency struct {
	count   uint64
	seconds float64
}

type metrics struct {
	mu        sync.Mutex
	requests  map[int]uint64 // by HTTP status code
	sections  map[string]sectionLatency
	simEvents uint64
	simWall   time.Duration
	jobsRun   uint64
	jobsErred uint64
	// runEWMA tracks the typical run wall time in seconds (exponentially
	// weighted, runEWMAAlpha per observation); 0 until the first run
	// completes. Retry-After on shed requests is derived from it.
	runEWMA float64
}

// runEWMAAlpha weights the newest run at 20%: heavy enough to follow a
// shift in workload mix within a few runs, light enough that one
// cache-cold outlier does not dominate the estimate.
const runEWMAAlpha = 0.2

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[int]uint64),
		sections: make(map[string]sectionLatency),
	}
}

// observeRequest counts one finished HTTP request.
func (m *metrics) observeRequest(code int) {
	m.mu.Lock()
	m.requests[code]++
	m.mu.Unlock()
}

// observeSection records one section/report/measure run's wall time under
// its metric label.
func (m *metrics) observeSection(name string, d time.Duration) {
	m.mu.Lock()
	s := m.sections[name]
	s.count++
	s.seconds += d.Seconds()
	m.sections[name] = s
	if m.runEWMA == 0 {
		m.runEWMA = d.Seconds()
	} else {
		m.runEWMA = runEWMAAlpha*d.Seconds() + (1-runEWMAAlpha)*m.runEWMA
	}
	m.mu.Unlock()
}

// retryAfterSeconds estimates how long a shed request should back off:
// the queue must drain `waiting` runs plus the caller's own, each taking
// about one EWMA run time. Before any run has completed (EWMA still 0)
// or for sub-second runs the floor of 1s applies — Retry-After is an
// integer header and 0 would invite an immediate stampede.
func (m *metrics) retryAfterSeconds(waiting int) int {
	m.mu.Lock()
	e := m.runEWMA
	m.mu.Unlock()
	secs := int(math.Ceil(e * float64(waiting+1)))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// observeJobs rolls a finished run's per-job wall/event stats into the
// server totals.
func (m *metrics) observeJobs(results []runner.Result) {
	var events uint64
	var wall time.Duration
	var erred uint64
	for _, r := range results {
		events += r.Events
		wall += r.Wall
		if r.Err != nil {
			erred++
		}
	}
	m.mu.Lock()
	m.simEvents += events
	m.simWall += wall
	m.jobsRun += uint64(len(results))
	m.jobsErred += erred
	m.mu.Unlock()
}

// write renders the exposition text. Queue, cache and coalescing state is
// read at scrape time so gauges are always current.
func (m *metrics) write(w io.Writer, q *queue, cs cacheStats, flightWaiters int, draining bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	g := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	g("cxlsimd_queue_depth", "Requests waiting for a run slot.", q.depth())
	g("cxlsimd_inflight_jobs", "Run slots currently held.", q.inFlight())
	g("cxlsimd_flight_waiters", "Requests currently coalesced behind in-flight leaders.",
		flightWaiters)
	drain := 0
	if draining {
		drain = 1
	}
	g("cxlsimd_draining", "1 once graceful shutdown has begun.", drain)

	g("cxlsimd_cache_hits_total", "In-memory result-cache hits.", cs.Hits)
	g("cxlsimd_cache_misses_total", "In-memory result-cache misses.", cs.Misses)
	g("cxlsimd_cache_evictions_total", "Result-cache LRU evictions.", cs.Evictions)
	g("cxlsimd_cache_entries", "Result-cache resident entries.", cs.Entries)
	g("cxlsimd_cache_bytes", "Result-cache resident bytes.", cs.Bytes)
	g("cxlsimd_cache_hit_rate", "Result-cache hits over lookups since start.",
		fmt.Sprintf("%.4f", cs.hitRate()))
	g("cxlsimd_run_wall_ewma_seconds", "EWMA of run wall time (Retry-After basis).",
		fmt.Sprintf("%.6f", m.runEWMA))
	g("cxlsimd_sim_events_total", "Simulated events across all served jobs.", m.simEvents)
	g("cxlsimd_sim_wall_seconds_total", "Cumulative job wall-clock seconds.",
		fmt.Sprintf("%.6f", m.simWall.Seconds()))
	rate := 0.0
	if m.simWall > 0 {
		rate = float64(m.simEvents) / m.simWall.Seconds()
	}
	g("cxlsimd_sim_events_per_second", "Aggregate simulated-event rate.",
		fmt.Sprintf("%.1f", rate))
	g("cxlsimd_jobs_total", "Runner jobs executed.", m.jobsRun)
	g("cxlsimd_jobs_failed_total", "Runner jobs that failed or were cancelled.", m.jobsErred)

	fmt.Fprintf(w, "# HELP cxlsimd_requests_total Finished HTTP requests by status code.\n")
	fmt.Fprintf(w, "# TYPE cxlsimd_requests_total counter\n")
	codes := make([]int, 0, len(m.requests))
	for code := range m.requests {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(w, "cxlsimd_requests_total{code=\"%d\"} %d\n", code, m.requests[code])
	}

	fmt.Fprintf(w, "# HELP cxlsimd_section_latency_seconds Run wall time per section.\n")
	fmt.Fprintf(w, "# TYPE cxlsimd_section_latency_seconds summary\n")
	names := make([]string, 0, len(m.sections))
	for name := range m.sections {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := m.sections[name]
		fmt.Fprintf(w, "cxlsimd_section_latency_seconds_sum{section=%q} %.6f\n", name, s.seconds)
		fmt.Fprintf(w, "cxlsimd_section_latency_seconds_count{section=%q} %d\n", name, s.count)
	}
}

// statusRecorder captures the response code for request accounting.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}
