package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

const (
	// minReps is the least number of repetitions of each kind a run makes,
	// however short --seconds is.
	minReps = 3
	// repTimeout bounds one repetition; the driver kills a child past it.
	repTimeout = 150 * time.Second
	// repBudget stops starting repetitions once a run has taken this long,
	// so a run ends within its time limit even when repetitions are slow.
	repBudget = 120 * time.Second
)

// rssQuantile is the quantile of per-repetition peak RSS that
// peak_rss_mb reports. On device about half the repetitions peak near
// the memory their work needs; in the rest a GC cycle happened to mark
// while a fig6 rig's multi-MiB allocation was live, the pacer set the
// next heap goal from that large live heap, and the peak lands up to
// 45 MiB higher. Which repetitions do so follows the pacer's timing, so
// the median moves in and out of the lower cluster from run to run; the
// lower quartile stays in it and still moves with the memory the work
// needs.
const rssQuantile = 0.25

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the end-to-end metrics and their units, in print order.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"req_p50_ms", "ms"},
	{"req_p99_ms", "ms"},
	{"req_per_s", "1/s"},
}

// jobGroups are the runner job groups the workloads run.
var jobGroups = []string{"table3", "fig3", "fig4", "fig5", "fig6", "wqsweep", "workload", "infer", "cluster", "fig8"}

// modules are the simulator layers CPU time is attributed to.
var modules = []string{"sim", "cache", "coherence", "device", "host", "interconnect", "pcie", "cxl",
	"mem", "kernel", "ksm", "zswap", "lzc", "offload", "kvs", "ycsb", "workload", "infer", "fabric",
	"runner", "service"}

// perLayer lists every per-layer metric; each traced run reports all of
// them, zero where the workload does not exercise the layer.
func perLayer() []metricSpec {
	var out []metricSpec
	for _, g := range jobGroups {
		out = append(out, metricSpec{"runner.job_ms." + g, "ms"})
	}
	out = append(out, metricSpec{"runner.critical_job_s", "s"}, metricSpec{"runner.parallel_eff", "ratio"})
	for _, g := range jobGroups {
		out = append(out, metricSpec{"sim.events." + g, "count"}, metricSpec{"sim.events_per_s." + g, "1/s"})
	}
	out = append(out, metricSpec{"experiments.enum_ms", "ms"}, metricSpec{"experiments.render_ms", "ms"})
	for _, m := range modules {
		out = append(out, metricSpec{m + ".self_cpu_ms", "ms"})
	}
	out = append(out, metricSpec{"mem.store_cpu_ms", "ms"})
	for _, g := range append(append([]string{}, jobGroups...), "service") {
		out = append(out, metricSpec{"alloc_mb." + g, "MiB"})
	}
	for _, n := range []string{"kernel.swap_outs", "kernel.major_faults", "kernel.writebacks", "kernel.backing_loads", "kvs.served_ops"} {
		out = append(out, metricSpec{n, "count"})
	}
	for _, v := range experiments.Fig8Variants() {
		out = append(out, metricSpec{"offload.variant_ms." + v.String(), "ms"})
	}
	out = append(out,
		metricSpec{"service.hit_p50_ms", "ms"},
		metricSpec{"service.miss_p50_ms", "ms"},
		metricSpec{"service.coalesced", "count"},
		metricSpec{"service.cache_hit_ratio", "ratio"},
		metricSpec{"service.shed", "count"},
		metricSpec{"service.cache_evictions", "count"},
		metricSpec{"trace.overhead_frac", "ratio"},
	)
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func driverMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: device, traffic, kvs or serve")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "how long to keep starting repetitions")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	start := time.Now()
	deadline := start.Add(time.Duration(*seconds * float64(time.Second)))
	var plain, traced []record
	var profiles []string
	attempted, failed, crashes := 0, 0, 0
	var failures []string
	fail := func(err error) {
		failed++
		if len(failures) < 10 {
			failures = append(failures, err.Error())
		}
	}
	for i := 0; ; i++ {
		isTraced := *trace == 1 && i%2 == 1
		have := len(plain)
		if isTraced {
			have = len(traced)
		}
		if time.Now().After(deadline) && (have >= minReps || time.Since(start) > repBudget) {
			break
		}
		prof := ""
		if isTraced {
			prof = filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-rep%d.pprof", w.name, *seed, i))
		}
		rec, err := spawnRep(exe, w, *seed, isTraced, prof)
		if err != nil {
			attempted++
			crashes++
			fail(fmt.Errorf("repetition %d: %w", i, err))
			if crashes > minReps {
				return fmt.Errorf("repetitions keep failing: %v", failures)
			}
			continue
		}
		if isTraced {
			traced = append(traced, rec)
			profiles = append(profiles, prof)
		} else {
			plain = append(plain, rec)
		}
	}

	if len(plain) == 0 || (*trace == 1 && len(traced) == 0) {
		return fmt.Errorf("no repetition finished: %v", failures)
	}
	all := append(append([]record{}, plain...), traced...)
	for i, rec := range all {
		attempted += rec.Attempted
		failed += rec.Failed
		for _, f := range rec.Failures {
			if len(failures) < 10 {
				failures = append(failures, fmt.Sprintf("repetition %d: %s", i, f))
			}
		}
		if i > 0 {
			attempted++
			if rec.Digest != all[0].Digest {
				fail(fmt.Errorf("repetition %d rendered digest %.12s, repetition 0 rendered %.12s", i, rec.Digest, all[0].Digest))
			}
		}
	}
	if w.check != nil {
		n, errs := w.check(*seed, all)
		attempted += n
		for _, err := range errs {
			fail(err)
		}
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d: %d repetitions (%d traced), output digest %.16s\n",
		w.name, *seed, len(all), len(traced), all[0].Digest)
	fmt.Fprintf(stdout, "fail_frac = %.6g (%d failed of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	for _, f := range failures {
		fmt.Fprintln(stdout, "  failure:", f)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if *trace == 0 {
		res.Metrics = endToEndMetrics(plain, stdout)
	} else {
		res.Metrics, err = metricSpecs(w, plain, traced, profiles, stdout)
		if err != nil {
			return err
		}
		if err := writeSpans(filepath.Join(*outDir, fmt.Sprintf("%s-seed%d-spans.json", w.name, *seed)), traced); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// spawnRep runs one repetition in a fresh process and decodes its record.
func spawnRep(exe string, w workload, seed int64, traced bool, profile string) (record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), repTimeout)
	defer cancel()
	args := []string{childFlag, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-traced", "-cpuprofile", profile)
	}
	var out bytes.Buffer
	spawn := time.Now().UnixNano()
	cmd := exec.CommandContext(ctx, exe, append(args, "-spawn-ns", strconv.FormatInt(spawn, 10))...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.workers))
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return record{}, fmt.Errorf("child: %w", err)
	}
	var rec record
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return record{}, fmt.Errorf("decode child record: %w", err)
	}
	return rec, nil
}

// endToEndMetrics computes the end-to-end metrics from untraced
// repetitions: per-repetition values reduced to their median (peak RSS to
// its lower quartile, see rssQuantile), and request latencies pooled over
// all repetitions. Each repetition's timings are rescaled by its own
// calibration (see calibrate.go); memory is not.
func endToEndMetrics(recs []record, stdout io.Writer) map[string]metric {
	raw := map[string][]float64{}
	scaled := map[string][]float64{}
	var reqs, rawReqs, calWall, calCPU, wallScales, cpuScales []float64
	for _, r := range recs {
		ws := calNominalWall.Seconds() / r.CalWallS
		cs := calNominalCPU.Seconds() / r.CalCPUS
		for _, p := range []struct {
			name     string
			v, scale float64
		}{
			{"wall_s", r.WallS, ws},
			{"cpu_s", r.CPUS, cs},
			{"peak_rss_mb", r.RSSMB, 1},
			{"setup_s", r.SetupS, ws},
			{"req_per_s", float64(len(r.ReqMS)) / r.WorkS, 1 / ws},
		} {
			raw[p.name] = append(raw[p.name], p.v)
			scaled[p.name] = append(scaled[p.name], p.v*p.scale)
		}
		for _, d := range r.ReqMS {
			rawReqs = append(rawReqs, d)
			reqs = append(reqs, d*ws)
		}
		calWall = append(calWall, r.CalWallS)
		calCPU = append(calCPU, r.CalCPUS)
		wallScales = append(wallScales, ws)
		cpuScales = append(cpuScales, cs)
	}
	fmt.Fprintf(stdout, "calibration kernel: wall %s s, cpu %s s\n", summary(calWall), summary(calCPU))
	fmt.Fprintf(stdout, "timings rescaled per repetition by factors: wall %s, cpu %s\n", summary(wallScales), summary(cpuScales))
	out := map[string]metric{}
	for _, m := range endToEnd {
		var v float64
		var note string
		switch m.name {
		case "req_p50_ms", "req_p99_ms":
			q := 0.5
			if m.name == "req_p99_ms" {
				q = 0.99
			}
			var n int
			v, n = quantile(reqs, q)
			r, _ := quantile(rawReqs, q)
			note = fmt.Sprintf("raw %.6g over n=%d requests", r, n)
			if !supported(q, n) {
				note += ", fewer than 10 beyond it"
			}
		case "peak_rss_mb":
			v, _ = quantile(scaled[m.name], rssQuantile)
			note = "lower quartile of " + summary(raw[m.name]) + " repetitions"
		default:
			v = median(scaled[m.name])
			note = "raw " + summary(raw[m.name]) + " repetitions"
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%-12s = %-12.6g %-4s %s\n", m.name, v, m.unit, note)
	}
	return out
}

// metricSpecs computes the per-layer metrics from traced repetitions
// (median over them), the CPU profile attribution (mean per repetition),
// and the tracing overhead against the untraced repetitions of the run.
func metricSpecs(w workload, plain, traced []record, profiles []string, stdout io.Writer) (map[string]metric, error) {
	per := map[string][]float64{}
	var hits, misses []float64
	for _, r := range traced {
		vals := spanMetrics(r.Spans, w.workers)
		for k, v := range r.Layer {
			vals[k] += v
		}
		for _, g := range jobGroups {
			if s := vals["runner.job_ms."+g] / 1000; s > 0 {
				vals["sim.events_per_s."+g] = vals["sim.events."+g] / s
			}
		}
		for k, v := range vals {
			per[k] = append(per[k], v)
		}
		hits = append(hits, r.HitMS...)
		misses = append(misses, r.MissMS...)
	}
	values := map[string]float64{}
	for k, vs := range per {
		values[k] = median(vs)
	}
	if len(hits) > 0 {
		values["service.hit_p50_ms"] = median(hits)
	}
	if len(misses) > 0 {
		values["service.miss_p50_ms"] = median(misses)
	}
	cpu, err := profileModules(profiles)
	if err != nil {
		return nil, err
	}
	for m, d := range cpu {
		values[layerOf(m)+".self_cpu_ms"] += ms(d) / float64(len(traced))
	}
	values["mem.store_cpu_ms"] = ms(cpu[moduleMemStore]) / float64(len(traced))
	wallOf := func(rs []record) []float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, r.WallS)
		}
		return v
	}
	values["trace.overhead_frac"] = median(wallOf(traced))/median(wallOf(plain)) - 1

	out := map[string]metric{}
	for _, m := range perLayer() {
		v := values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%-34s = %-12.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(stdout, "tracing: untraced wall_s %s; traced wall_s %s\n", summary(wallOf(plain)), summary(wallOf(traced)))
	reportMapping(w.name, cpu, stdout)
	return out, nil
}

// spanMetrics derives the span-based per-layer values of one repetition
// whose runner.Run calls used the given number of workers.
func spanMetrics(spans []Span, workers int) map[string]float64 {
	self := selfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	// underRun reports whether s descends from a runner.Run span.
	underRun := func(s Span) bool {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Name == "runner.Run" {
				return true
			}
		}
		return false
	}
	vals := map[string]float64{}
	var runNS, busyNS int64
	for _, s := range spans {
		d := s.End - s.Start
		switch {
		case s.Name == "experiments.Sections":
			vals["experiments.enum_ms"] += float64(d) / 1e6
		case strings.HasPrefix(s.Name, "render:"):
			vals["experiments.render_ms"] += float64(self[s.ID]) / 1e6
		case s.Name == "runner.Run":
			runNS += d
		case strings.HasPrefix(s.Name, "job:"):
			vals["runner.critical_job_s"] = math.Max(vals["runner.critical_job_s"], float64(d)/1e9)
		}
		if underRun(s) {
			busyNS += self[s.ID]
		}
	}
	if runNS > 0 {
		vals["runner.parallel_eff"] = float64(busyNS) / (float64(workers) * float64(runNS))
	}
	return vals
}

// reportMapping prints which module took the most CPU and checks it
// against the layer each workload is meant to stress.
func reportMapping(name string, cpu map[string]time.Duration, stdout io.Writer) {
	var total time.Duration
	type share struct {
		m string
		d time.Duration
	}
	byLayer := map[string]time.Duration{}
	for m, d := range cpu {
		total += d
		byLayer[layerOf(m)] += d
	}
	var shares []share
	for m, d := range byLayer {
		shares = append(shares, share{m, d})
	}
	if total == 0 {
		return
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].d != shares[j].d {
			return shares[i].d > shares[j].d
		}
		return shares[i].m < shares[j].m
	})
	var top []string
	for i, s := range shares {
		if i == 6 {
			break
		}
		top = append(top, fmt.Sprintf("%s %.1f%%", s.m, 100*float64(s.d)/float64(total)))
	}
	fmt.Fprintf(stdout, "cpu by module (%v sampled): %s\n", total, strings.Join(top, ", "))
	largest := ""
	for _, s := range shares {
		if s.m != moduleRuntime && s.m != moduleOther {
			largest = s.m
			break
		}
	}
	frac := func(m string) float64 { return float64(cpu[m]) / float64(total) }
	var verdict string
	switch name {
	case "traffic":
		verdict = expect(largest == "workload", "largest module is %s (expected workload)", largest)
	case "kvs":
		verdict = expect(largest == "mem", "largest module is %s (expected mem)", largest)
	case "device":
		// "Near zero" is under 5 %: on kvs the store alone takes over 60 %.
		f := frac(moduleMemStore) + frac("kernel")
		verdict = expect(f < 0.05, "the mem backing store and kernel take %.2f%% (expected near zero)", 100*f)
	case "serve":
		verdict = expect(byLayer["service"] > 0, "service takes %.2f%% (expected above zero)", 100*frac("service"))
	}
	fmt.Fprintln(stdout, "layer mapping:", verdict)
}

func expect(ok bool, format string, args ...any) string {
	s := fmt.Sprintf(format, args...)
	if ok {
		return "ok: " + s
	}
	return "NOT MET: " + s
}

// writeSpans writes the traced repetitions' spans, one list per
// repetition.
func writeSpans(path string, traced []record) error {
	var all [][]Span
	for _, r := range traced {
		all = append(all, r.Spans)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
