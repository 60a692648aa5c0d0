package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"time"

	cxl2sim "repro"
	"repro/internal/experiments"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /v1/sections", s.handleSectionsList)
	s.mux.HandleFunc("POST /v1/sections/{name}", s.handleSectionRun)
	s.mux.HandleFunc("POST /v1/measure", s.handleMeasure)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
}

// httpError carries a specific status code out of a run function.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// runCached is the shared path of every simulation endpoint: serve from
// the result cache when possible, otherwise coalesce concurrent identical
// requests onto one leader, admit the leader through the bounded queue
// (shedding load with 429 + Retry-After when the waiting room is full),
// execute under the per-request deadline, and store the rendered bytes.
//
// The leader's run context derives from the server's base context — not
// the leader's connection — because a finished result benefits every
// coalesced follower and all future cache hits; it stays bounded by
// RequestTimeout and is hard-cancelled if shutdown outlives the drain
// window. Admission waiting, by contrast, does watch the client: a caller
// that hangs up while queued frees its place immediately.
func (s *Server) runCached(w http.ResponseWriter, r *http.Request, key, label string,
	run func(ctx context.Context) (cached, error)) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if resp, ok := s.cache.get(key); ok {
		s.serveCached(w, resp, "hit-mem")
		return
	}
	resp, err, leader := s.flight.do(key, r.Context().Done(), func() (cached, error) {
		if err := s.queue.acquire(r.Context()); err != nil {
			return cached{}, err
		}
		defer s.queue.release()
		ctx, cancel := context.WithTimeout(s.base, s.cfg.RequestTimeout)
		defer cancel()
		start := time.Now()
		resp, err := run(ctx)
		s.metrics.observeSection(label, time.Since(start))
		if err != nil {
			return cached{}, err
		}
		resp.key = key
		if resp.status == 0 {
			resp.status = http.StatusOK
		}
		s.cache.put(resp)
		return resp, nil
	})
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	source := "coalesced"
	if leader {
		source = "miss"
	}
	s.serveCached(w, resp, source)
}

// serveCached writes a stored response with cache diagnostics.
func (s *Server) serveCached(w http.ResponseWriter, resp cached, source string) {
	h := w.Header()
	h.Set("Content-Type", resp.contentType)
	h.Set("X-Cache", source)
	h.Set("X-Cache-Key", keyHash(resp.key))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body)
}

// writeRunError maps run/admission failures onto HTTP statuses.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var herr *httpError
	switch {
	case errors.As(err, &herr):
		writeError(w, herr.status, "%s", herr.msg)
	case errors.Is(err, errQueueFull):
		// Back off by the estimated drain time of the queue ahead of the
		// caller, not its length: a one-deep queue of minute-long report
		// runs needs a far longer retry than ten quick section runs.
		w.Header().Set("Retry-After", strconv.Itoa(s.metrics.retryAfterSeconds(s.queue.depth())))
		writeError(w, http.StatusTooManyRequests,
			"admission queue full (%d waiting, %d in flight); retry later",
			s.queue.depth(), s.queue.inFlight())
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, errFollowerGone):
		// The client stopped waiting while coalesced; nothing useful can
		// be delivered. 499 is the de-facto "client closed request".
		w.WriteHeader(499)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "run exceeded the %s request deadline",
			s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "run cancelled by shutdown")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// ---- health + metrics ------------------------------------------------

type healthzResponse struct {
	Status       string     `json:"status"`
	QueueDepth   int        `json:"queue_depth"`
	InFlight     int        `json:"in_flight"`
	Cache        cacheStats `json:"cache"`
	CacheHitRate float64    `json:"cache_hit_rate"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.snapshot()
	resp := healthzResponse{
		Status:       "ok",
		QueueDepth:   s.queue.depth(),
		InFlight:     s.queue.inFlight(),
		Cache:        cs,
		CacheHitRate: cs.hitRate(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.queue, s.cache.snapshot(), s.flight.waiters(), s.draining.Load())
}

// handleVersion reports the binary's build info and the canonical
// cache-key schema its responses are keyed under.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, currentBuild())
}

// ---- GET /v1/sections ------------------------------------------------

type sectionInfo struct {
	Name string `json:"name"`
	Jobs int    `json:"jobs"`
}

func (s *Server) handleSectionsList(w http.ResponseWriter, r *http.Request) {
	secs := cxl2sim.ExperimentSections(s.cfg.DefaultReps)
	infos := make([]sectionInfo, 0, len(secs))
	for _, sec := range secs {
		infos = append(infos, sectionInfo{Name: sec.Name, Jobs: len(sec.Jobs)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"sections": infos})
}

// ---- POST /v1/sections/{name} ----------------------------------------

type sectionRequest struct {
	// Reps tunes the repetition count (0 keeps the paper's defaults).
	Reps int `json:"reps"`
	// Seed roots the per-job seed derivation (0 = the default root seed).
	Seed int64 `json:"seed"`
	// Format selects "text" (the cxlbench rendering, default) or "json"
	// (the section's typed rows).
	Format string `json:"format"`
	// Trace is a base64-encoded workload trace (the versioned binary
	// format) to replay instead of generating the request stream. Only the
	// "infer" section supports replay; the trace's content hash joins the
	// cache key, so distinct streams never alias.
	Trace string `json:"trace"`
}

func (s *Server) handleSectionRun(w http.ResponseWriter, r *http.Request) {
	var req sectionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Reps == 0 {
		req.Reps = s.cfg.DefaultReps
	}
	if req.Reps < 0 {
		writeError(w, http.StatusBadRequest, "reps must be >= 0")
		return
	}
	if req.Seed == 0 {
		req.Seed = cxl2sim.DefaultRootSeed
	}
	if req.Format == "" {
		req.Format = "text"
	}
	if req.Format != "text" && req.Format != "json" {
		writeError(w, http.StatusBadRequest, "format must be \"text\" or \"json\", got %q", req.Format)
		return
	}
	name := r.PathValue("name")
	secs := cxl2sim.ExperimentSections(req.Reps)
	sec, ok := cxl2sim.ExperimentSectionByName(secs, name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown section %q (have %s)", name, sectionNames(secs))
		return
	}

	key := experiments.SectionKey(name, req.Reps, req.Seed, req.Format)
	if req.Trace != "" {
		if name != "infer" {
			writeError(w, http.StatusBadRequest, "section %q does not support trace replay (only \"infer\")", name)
			return
		}
		raw, err := base64.StdEncoding.DecodeString(req.Trace)
		if err != nil {
			writeError(w, http.StatusBadRequest, "trace is not valid base64: %v", err)
			return
		}
		t, err := cxl2sim.DecodeWorkloadTrace(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := t.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for i, rec := range t.Requests {
			if rec.Prompt == 0 || rec.Decode == 0 {
				writeError(w, http.StatusBadRequest, "trace record %d has empty prompt/decode", i)
				return
			}
		}
		sec = cxl2sim.InferSectionTrace(req.Reps, t)
		key = cxl2sim.SectionTraceKey(name, req.Reps, req.Seed, req.Format, t)
	}
	s.runCached(w, r, key, "section/"+name, func(ctx context.Context) (cached, error) {
		results := cxl2sim.RunJobs(sec.Jobs, cxl2sim.JobOptions{
			Workers: s.cfg.Workers, RootSeed: req.Seed, Context: ctx,
		})
		if err := s.checkRun(ctx, results); err != nil {
			return cached{}, err
		}
		if req.Format == "json" {
			body, err := json.MarshalIndent(map[string]any{
				"section": name,
				"reps":    req.Reps,
				"seed":    req.Seed,
				"rows":    flattenRows(results),
			}, "", "  ")
			if err != nil {
				return cached{}, fmt.Errorf("marshal rows: %w", err)
			}
			return cached{body: append(body, '\n'), contentType: "application/json"}, nil
		}
		var buf bytes.Buffer
		if err := sec.Render(&buf, results); err != nil {
			return cached{}, err
		}
		return cached{body: buf.Bytes(), contentType: "text/plain; charset=utf-8"}, nil
	})
}

// checkRun folds a finished run into the metrics and converts failures
// into errors the status mapper understands.
func (s *Server) checkRun(ctx context.Context, results []cxl2sim.JobResult) error {
	s.metrics.observeJobs(results)
	if n := cxl2sim.CancelledJobCount(results); n > 0 {
		return fmt.Errorf("cancelled after %d/%d jobs: %w", len(results)-n, len(results), ctx.Err())
	}
	return cxl2sim.FirstJobError(results)
}

func sectionNames(secs []cxl2sim.ExperimentSection) string {
	names := make([]string, len(secs))
	for i, sec := range secs {
		names[i] = sec.Name
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// flattenRows concatenates the per-job row fragments ([]T per job) into
// one flat slice for JSON rendering, preserving job order.
func flattenRows(results []cxl2sim.JobResult) []any {
	rows := []any{}
	for _, res := range results {
		v := reflect.ValueOf(res.Value)
		if !v.IsValid() || v.Kind() != reflect.Slice {
			continue
		}
		for i := 0; i < v.Len(); i++ {
			rows = append(rows, v.Index(i).Interface())
		}
	}
	return rows
}

// decodeBody parses an optional JSON request body; unknown fields are
// rejected so typos fail loudly instead of silently keying a default run.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "decode body: %v", err)
		return false
	}
	return true
}

// ---- POST /v1/measure ------------------------------------------------

type measureConfig struct {
	// DeviceType is "type2" (default) or "type3".
	DeviceType string `json:"device_type"`
	LLCBytes   int    `json:"llc_bytes"`
	LLCWays    int    `json:"llc_ways"`
	Cores      int    `json:"cores"`
	SNC        bool   `json:"snc"`
}

type measureRequest struct {
	// Kind is "d2h", "d2d" or "h2d".
	Kind string `json:"kind"`
	// Op is the access: NC-P / NC-rd / NC-wr / CO-rd / CO-wr / CS-rd for
	// d2h and d2d, ld / nt-ld / st / nt-st for h2d.
	Op string `json:"op"`
	// Place primes the caches: cold (default), LLC-1, HMC-1 or DMC-1.
	Place string `json:"place"`
	// Reps / Burst follow the §V methodology (0 = 1000 reps, 16 bursts).
	Reps  int `json:"reps"`
	Burst int `json:"burst"`
	// Seed roots the job's seed derivation (0 = the default root seed).
	Seed   int64         `json:"seed"`
	Config measureConfig `json:"config"`
}

type measureResponse struct {
	Kind         string  `json:"kind"`
	Op           string  `json:"op"`
	Place        string  `json:"place"`
	Reps         int     `json:"reps"`
	Burst        int     `json:"burst"`
	Seed         int64   `json:"seed"`
	MedianNs     float64 `json:"median_ns"`
	StdDevNs     float64 `json:"stddev_ns"`
	BandwidthGBs float64 `json:"bandwidth_gbs"`
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req measureRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Place == "" {
		req.Place = "cold"
	}
	place, ok := cxl2sim.PlacementNames[req.Place]
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown place %q (cold, LLC-1, HMC-1, DMC-1)", req.Place)
		return
	}
	if req.Reps < 0 || req.Burst < 0 {
		writeError(w, http.StatusBadRequest, "reps and burst must be >= 0")
		return
	}
	if req.Seed == 0 {
		req.Seed = cxl2sim.DefaultRootSeed
	}
	cfg, err := req.Config.toConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec := cxl2sim.MeasureSpec{Reps: req.Reps, Burst: req.Burst, Place: place}
	id := fmt.Sprintf("measure/%s/%s", req.Kind, req.Op)

	var job cxl2sim.Job
	switch req.Kind {
	case "d2h", "d2d":
		op, ok := cxl2sim.D2HOpNames[req.Op]
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown %s op %q (NC-P, NC-rd, NC-wr, CO-rd, CO-wr, CS-rd)", req.Kind, req.Op)
			return
		}
		if req.Kind == "d2h" {
			job = cxl2sim.MeasureD2HJob(id, cfg, op, spec)
		} else {
			job = cxl2sim.MeasureD2DJob(id, cfg, op, spec)
		}
	case "h2d":
		op, ok := cxl2sim.HostOpNames[req.Op]
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown h2d op %q (ld, nt-ld, st, nt-st)", req.Op)
			return
		}
		job = cxl2sim.MeasureH2DJob(id, cfg, op, spec)
	default:
		writeError(w, http.StatusBadRequest, "unknown kind %q (d2h, d2d, h2d)", req.Kind)
		return
	}

	key := fmt.Sprintf("v1/measure|%s|%s|%s|reps=%d|burst=%d|seed=%d|%s",
		req.Kind, req.Op, req.Place, req.Reps, req.Burst, req.Seed, cfg.CanonicalKey())
	s.runCached(w, r, key, "measure", func(ctx context.Context) (cached, error) {
		results := cxl2sim.RunJobs([]cxl2sim.Job{job}, cxl2sim.JobOptions{
			Workers: s.cfg.Workers, RootSeed: req.Seed, Context: ctx,
		})
		if err := s.checkRun(ctx, results); err != nil {
			if results[0].Err != nil && !results[0].Panicked && !results[0].Cancelled {
				// A plain job error on this endpoint is a bad measurement
				// request (e.g. DMC-1 priming on a d2h access), not a
				// server fault.
				return cached{}, httpErrorf(http.StatusBadRequest, "%v", results[0].Err)
			}
			return cached{}, err
		}
		m, ok := results[0].Value.(cxl2sim.Measurement)
		if !ok {
			return cached{}, fmt.Errorf("unexpected job result %T", results[0].Value)
		}
		body, err := json.MarshalIndent(measureResponse{
			Kind: req.Kind, Op: req.Op, Place: req.Place,
			Reps: m.Reps, Burst: m.Burst, Seed: req.Seed,
			MedianNs: m.MedianNs, StdDevNs: m.StdDevNs, BandwidthGBs: m.BandwidthGBs,
		}, "", "  ")
		if err != nil {
			return cached{}, err
		}
		return cached{body: append(body, '\n'), contentType: "application/json"}, nil
	})
}

func (c measureConfig) toConfig() (cxl2sim.Config, error) {
	cfg := cxl2sim.Config{
		LLCBytes: c.LLCBytes, LLCWays: c.LLCWays, Cores: c.Cores, SNC: c.SNC,
	}
	switch c.DeviceType {
	case "", "type2":
		// default
	case "type3":
		cfg.DeviceType = cxl2sim.Type3
	default:
		return cfg, fmt.Errorf("unknown device_type %q (type2, type3)", c.DeviceType)
	}
	return cfg, nil
}

// ---- GET /v1/report --------------------------------------------------

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	reps := 400 // cmd/report's default, so the cached bytes match its output
	if v := q.Get("reps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad reps %q", v)
			return
		}
		reps = n
	}
	full := false
	if v := q.Get("full"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad full %q", v)
			return
		}
		full = b
	}
	seed := int64(cxl2sim.DefaultRootSeed)
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad seed %q", v)
			return
		}
		if n == 0 {
			n = cxl2sim.DefaultRootSeed
		}
		seed = n
	}

	key := experiments.ReportKey(reps, full, seed)
	opts := cxl2sim.ReportOptions{Reps: reps, Full: full}
	s.runCached(w, r, key, "report", func(ctx context.Context) (cached, error) {
		results := cxl2sim.RunJobs(cxl2sim.ReportJobs(opts), cxl2sim.JobOptions{
			Workers: s.cfg.Workers, RootSeed: seed, Context: ctx,
		})
		if cerr := s.checkRun(ctx, results); cerr != nil {
			return cached{}, cerr
		}
		var buf bytes.Buffer
		if err := cxl2sim.RenderReport(&buf, opts, results); err != nil {
			return cached{}, err
		}
		return cached{body: buf.Bytes(), contentType: "text/markdown; charset=utf-8"}, nil
	})
}
