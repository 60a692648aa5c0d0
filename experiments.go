package cxl2sim

import (
	"io"

	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/internal/ycsb"
)

// The experiment sections regenerate the paper's evaluation (see jobs.go
// for the registry and RunExperimentSections); the declarations here are
// the section inputs and row helpers the commands need beyond it.

// Fig6Row is one point of Fig. 6 (transfer-size sweep, CXL vs PCIe).
type Fig6Row = experiments.Fig6Row

// WriteFig6CSV renders Fig. 6 rows as CSV for external plotting.
func WriteFig6CSV(w io.Writer, rows []Fig6Row) error { return experiments.WriteFig6CSV(w, rows) }

// Fig8Config tunes the co-simulation (zero values take calibrated
// defaults: 300 ms horizon, 60k ops/s).
type Fig8Config = experiments.Fig8Config

// Fig8CalibratedSeed is the Fig8Config.Seed the published Fig. 8 numbers
// were calibrated under; a zero seed derives each run's seed from the
// root seed instead.
const Fig8CalibratedSeed = experiments.SeedFig8Calibrated

// KernelSections returns the end-to-end kernel-feature sections of
// §VI–VII that kvsbench runs, in presentation order: table4 (offload
// latency breakdown), fig8 (Redis p99 under each feature's variants over
// workloads; nil = all of A–D) and cycles (the §VII host-CPU-cycle and
// LLC-pollution analysis on the first workload). features lists "zswap"
// and/or "ksm".
func KernelSections(features []string, workloads []Workload, cfg Fig8Config) []ExperimentSection {
	return experiments.KernelSections(features, workloads, cfg)
}

// InferConfig tunes the serving experiment (zero values take the default
// 48-request runs with the job's derived seed).
type InferConfig = experiments.InferConfig

// Workloads lists the YCSB core workloads A–D.
func Workloads() []Workload { return ycsb.Workloads() }

// WorkloadTrace is a recorded request stream in the versioned binary trace
// format: freeze any synthetic or captured stream once, replay it
// bit-for-bit across policies, worker counts and binary versions.
type WorkloadTrace = workload.Trace

// DecodeWorkloadTrace parses an encoded trace, validating version and
// length fields.
func DecodeWorkloadTrace(data []byte) (*WorkloadTrace, error) {
	return workload.DecodeTrace(data)
}

// RecordInferTrace records the request stream the infer section serves
// under rootSeed and cfg — feed the result back through InferConfig.Trace
// (or InferSectionTrace) to reproduce the runs exactly.
func RecordInferTrace(rootSeed int64, cfg InferConfig) *WorkloadTrace {
	return experiments.InferTrace(rootSeed, cfg)
}

// InferSectionTrace builds the infer experiment section replaying t
// through every placement scenario.
func InferSectionTrace(reps int, t *WorkloadTrace) ExperimentSection {
	return experiments.InferSection(experiments.InferConfig{Reps: reps, Trace: t})
}

// SectionTraceKey is the canonical result-cache key for a section run that
// replays a trace: the trace's content hash joins the key so distinct
// streams never share a cache entry.
func SectionTraceKey(name string, reps int, seed int64, format string, t *WorkloadTrace) string {
	return experiments.SectionKeyTrace(name, reps, seed, format, t.Hash())
}
