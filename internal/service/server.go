// Package service is the simulator-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/cxlsimd) that serves the paper's experiment
// sections, ad-hoc §V microbenchmark jobs and the full comparison report
// on top of the shared-nothing job runner.
//
// Three properties shape the design:
//
//   - determinism: the runner renders byte-identical output per
//     (config, seed) for any worker count, so rendered responses are pure
//     functions of their canonical request key — a size-bounded LRU
//     caches them and concurrent identical requests coalesce onto one
//     simulation run;
//   - backpressure: a bounded admission queue caps concurrent runs and
//     waiting requests; excess load is shed at the front door with
//     429 + Retry-After instead of unbounded goroutines;
//   - bounded lifetimes: every run carries a deadline plumbed into
//     runner.Run as real cancellation, and shutdown drains in-flight work
//     within a configured timeout while rejecting new work.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
)

// Config shapes a Server. Zero values take the noted defaults.
type Config struct {
	// Addr is the listen address (default ":8437").
	Addr string
	// Workers sizes the runner pool used by each admitted run
	// (default GOMAXPROCS). Output bytes do not depend on it.
	Workers int
	// MaxConcurrent bounds simultaneously executing runs (default 2 —
	// each run already fans its jobs out over Workers cores).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a run slot; beyond it
	// requests are rejected with 429 (default 8).
	QueueDepth int
	// CacheBytes bounds the result cache (default 64 MiB).
	CacheBytes int64
	// RequestTimeout is the per-run deadline, enforced as context
	// cancellation inside runner.Run (default 120s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 30s).
	DrainTimeout time.Duration
	// DefaultReps is the repetition count used when a request omits one
	// (default 0: each endpoint keeps its CLI default — 1000 for
	// sections and measurements, 400 for the report).
	DefaultReps int
	// Log receives request and lifecycle lines; nil logs to stderr.
	Log *log.Logger
}

func (c *Config) setDefaults() {
	if c.Addr == "" {
		c.Addr = ":8437"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = log.New(os.Stderr, "cxlsimd: ", log.LstdFlags)
	}
}

// Server is the daemon: admission queue, result cache, request
// coalescing, metrics and the HTTP handler tree.
type Server struct {
	cfg      Config
	queue    *queue
	cache    *resultCache
	flight   *flightGroup
	metrics  *metrics
	mux      *http.ServeMux
	http     *http.Server
	draining atomic.Bool

	// base is the ancestor of every run context; cancelling it
	// hard-stops runs that outlive the drain window.
	base       context.Context
	cancelBase context.CancelFunc
}

// New builds a Server from cfg (zero values take defaults). No
// configuration is rejected today, so the error is always nil.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newQueue(cfg.MaxConcurrent, cfg.QueueDepth),
		cache:   newResultCache(cfg.CacheBytes),
		flight:  newFlightGroup(),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	s.base, s.cancelBase = context.WithCancel(context.Background())
	s.routes()
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// BuildInfo describes the running binary for GET /v1/version: the
// toolchain, the VCS revision it was built from, and the canonical
// cache-key schema its responses are keyed under.
type BuildInfo struct {
	GoVersion       string `json:"go_version"`
	Revision        string `json:"revision,omitempty"`
	Modified        bool   `json:"modified,omitempty"`
	CacheKeyVersion string `json:"cache_key_version"`
}

// currentBuild returns the running binary's BuildInfo.
func currentBuild() BuildInfo {
	info := BuildInfo{GoVersion: runtime.Version(), CacheKeyVersion: experiments.CacheKeyVersion}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.Revision = s.Value
			case "vcs.modified":
				info.Modified = s.Value == "true"
			}
		}
	}
	return info
}

// Handler returns the full handler tree (request accounting included) —
// the httptest entry point.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		s.mux.ServeHTTP(rec, r)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		s.metrics.observeRequest(rec.code)
	})
}

// writeJSON renders v with a trailing newline. Encoding of the service's
// own response types cannot fail; a broken client connection is ignored
// like any other write error at this layer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ListenAndServe runs the daemon until Shutdown or a listener error.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }
