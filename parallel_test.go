package cxl2sim_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	cxl2sim "repro"
)

// These tests pin the parallel runner's suite-level guarantees through the
// public API: a parallel run renders byte-identical output to a serial
// run, per-job seeds do not move when the worker count changes, and a
// crashed experiment is isolated to a failed result instead of taking the
// suite down.

// reportBytes renders the report at the given worker count.
func reportBytes(t *testing.T, workers int) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cxl2sim.RunExperimentSections(&buf,
		[]cxl2sim.ExperimentSection{cxl2sim.ReportSection(30, false)},
		cxl2sim.JobOptions{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReportParallelMatchesSerial is the tentpole acceptance check: the
// full report rendered from a parallel run must be byte-identical to the
// serial run for the same root seed.
func TestReportParallelMatchesSerial(t *testing.T) {
	serial := reportBytes(t, 1)
	for _, workers := range []int{2, 4, 16} {
		if got := reportBytes(t, workers); got != serial {
			t.Errorf("report bytes diverged at %d workers", workers)
		}
	}
}

// TestSuiteParallelMatchesSerial does the same for the cxlbench section
// suite (tables + figures + sweep rendered from one shared pool) and for
// the kvsbench kernel-feature sections (table4, fig8, cycles).
func TestSuiteParallelMatchesSerial(t *testing.T) {
	for _, suite := range []struct {
		name string
		secs []cxl2sim.ExperimentSection
	}{
		{"cxlbench", cxl2sim.ExperimentSections(30)},
		{"kvsbench", kvsbenchSections()},
	} {
		name, secs := suite.name, suite.secs
		render := func(workers int) string {
			var buf bytes.Buffer
			if _, err := cxl2sim.RunExperimentSections(&buf, secs,
				cxl2sim.JobOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		serial := render(1)
		if serial == "" {
			t.Fatalf("empty %s suite output", name)
		}
		if got := render(4); got != serial {
			t.Errorf("%s suite bytes diverged at 4 workers", name)
		}
	}
}

// TestMeasureJobSeedStability pins the microbenchmark job constructors:
// results depend only on (root seed, job ID), not on the worker count.
func TestMeasureJobSeedStability(t *testing.T) {
	jobs := []cxl2sim.Job{
		cxl2sim.MeasureD2HJob("d2h/NC-rd", cxl2sim.Config{}, cxl2sim.NCRead, cxl2sim.MeasureSpec{Reps: 40}),
		cxl2sim.MeasureD2DJob("d2d/CO-rd", cxl2sim.Config{}, cxl2sim.CORead, cxl2sim.MeasureSpec{Reps: 40}),
		cxl2sim.MeasureH2DJob("h2d/ld", cxl2sim.Config{}, cxl2sim.Ld, cxl2sim.MeasureSpec{Reps: 40}),
	}
	run := func(workers int) []cxl2sim.Measurement {
		results := cxl2sim.RunJobs(jobs, cxl2sim.JobOptions{Workers: workers})
		if err := cxl2sim.FirstJobError(results); err != nil {
			t.Fatal(err)
		}
		var ms []cxl2sim.Measurement
		for _, r := range results {
			ms = append(ms, r.Value.(cxl2sim.Measurement))
		}
		return ms
	}
	serial := run(1)
	parallel := run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("job %q: serial %+v != parallel %+v", jobs[i].ID, serial[i], parallel[i])
		}
	}
}

// TestSuitePanicIsolation plants a panicking job in a custom section and
// checks that the suite reports the failure without losing the healthy
// sections' output.
func TestSuitePanicIsolation(t *testing.T) {
	secs := cxl2sim.ExperimentSections(30)
	table3, ok := cxl2sim.ExperimentSectionByName(secs, "table3")
	if !ok {
		t.Fatal("no table3 section")
	}
	bad := cxl2sim.ExperimentSection{
		Name: "planted",
		Jobs: []cxl2sim.Job{{ID: "planted/crash", Run: func(ctx *cxl2sim.JobCtx) (any, error) {
			panic("planted suite failure")
		}}},
		Render: func(w io.Writer, results []cxl2sim.JobResult) error {
			return cxl2sim.FirstJobError(results)
		},
	}
	var buf bytes.Buffer
	results, err := cxl2sim.RunExperimentSections(&buf, []cxl2sim.ExperimentSection{table3, bad},
		cxl2sim.JobOptions{Workers: 4})
	if err == nil || !strings.Contains(err.Error(), "planted suite failure") {
		t.Fatalf("err = %v, want planted failure", err)
	}
	if !strings.Contains(err.Error(), "planted") {
		t.Errorf("error does not name the failing section: %v", err)
	}
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("healthy section output lost")
	}
	var failed int
	for _, r := range results {
		if r.Err != nil {
			failed++
			if !r.Panicked {
				t.Errorf("job %q failed without Panicked", r.ID)
			}
		}
	}
	if failed != 1 {
		t.Errorf("failed jobs = %d, want exactly the planted one", failed)
	}
	if ferr := cxl2sim.FirstJobError(results); ferr == nil || !strings.Contains(ferr.Error(), "planted/crash") {
		t.Errorf("FirstJobError = %v, want planted/crash", ferr)
	}
}
