// Command cxlsimd serves the simulator over HTTP: the paper's experiment
// sections, ad-hoc §V microbenchmark measurements and the full
// paper-vs-measured report, on top of the shared-nothing job runner.
//
// Because the runner renders byte-identical output per (config, seed)
// regardless of worker count, responses are cached in a size-bounded LRU
// and concurrent identical requests share one simulation run. A bounded
// admission queue sheds excess load with 429 + Retry-After; every run
// carries a deadline enforced as real cancellation inside the runner; and
// SIGINT/SIGTERM drain in-flight work within -drain-timeout before exit.
//
// Endpoints:
//
//	GET  /healthz                 liveness + queue/cache gauges
//	GET  /metrics                 Prometheus text exposition
//	GET  /v1/version              build info + cache-key schema
//	GET  /v1/sections             section catalog
//	POST /v1/sections/{name}      run one section (body: reps/seed/format)
//	POST /v1/measure              one Measure{D2H,D2D,H2D} job
//	GET  /v1/report               full report (?reps=&full=&seed=)
//
// Usage:
//
//	cxlsimd [-addr :8437] [-workers N] [-max-concurrent N] [-queue-depth N]
//	        [-cache-mb N] [-request-timeout D] [-drain-timeout D] [-reps N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	workers := flag.Int("workers", 0, "runner pool size per admitted run (0 = GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 2, "simultaneously executing runs")
	queueDepth := flag.Int("queue-depth", 8, "requests allowed to wait for a run slot before 429")
	cacheMB := flag.Int64("cache-mb", 64, "result-cache bound in MiB")
	requestTimeout := flag.Duration("request-timeout", 120*time.Second, "per-run deadline")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
	reps := flag.Int("reps", 0, "default section repetition count (0 keeps the paper's defaults)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := service.New(service.Config{
		Addr:           *addr,
		Workers:        *workers,
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		CacheBytes:     *cacheMB << 20,
		RequestTimeout: *requestTimeout,
		DrainTimeout:   *drainTimeout,
		DefaultReps:    *reps,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxlsimd:", err)
		os.Exit(1)
	}
	if err := srv.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "cxlsimd:", err)
		os.Exit(1)
	}
}
