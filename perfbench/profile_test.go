package main

import (
	"strings"
	"testing"
	"time"
)

func TestChargeModuleSkipsRuntimeFrames(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Allocation and GC assist inside a layer are the layer's cost.
		{[]string{"runtime.mallocgc", "runtime.makeslice", "repro/internal/mem.(*Store).ReadLine", "repro/internal/kernel.(*MM).Fault"}, moduleMemStore},
		{[]string{"runtime.memclrNoHeapPointers", "repro/internal/mem.(*Controller).Reset"}, "mem"},
		{[]string{"runtime.mapaccess2", "repro/internal/cache.(*Cache).Lookup"}, "cache"},
		// A nested package belongs to its top-level layer.
		{[]string{"repro/internal/infer/cluster.(*hub).admit", "repro/internal/runner.runOne"}, "infer"},
		// The innermost repository frame wins, even when it is the driver.
		{[]string{"runtime.memmove", "main.(*rep).add", "repro/internal/runner.runOne"}, moduleOther},
		{[]string{"repro.MeasureD2HJob.func1"}, moduleOther},
		// No repository frame at all: background GC, scheduler.
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, moduleRuntime},
	}
	for _, c := range cases {
		if got := chargeModule(c.stack); got != c.want {
			t.Errorf("chargeModule(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseTracesSumsSamplesByModule(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 2s, Total samples = 70ms ( 3.50%)
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             repro/internal/mem.(*Store).Write
             repro/internal/kernel.(*MM).Map
-----------+-------------------------------------------------------
         bytes:  [64]
      20ms   repro/internal/workload.zetaStatic
             repro/internal/workload.NewZipf (inline)
-----------+-------------------------------------------------------
      10ms   repro/internal/mem.(*Store).Read
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
`
	got, err := parseTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		moduleMemStore: 40 * time.Millisecond, "workload": 20 * time.Millisecond, moduleRuntime: 10 * time.Millisecond,
	}
	if len(got) != len(want) {
		t.Errorf("got modules %v, want %v", got, want)
	}
	for m, d := range want {
		if got[m] != d {
			t.Errorf("%s = %v, want %v", m, got[m], d)
		}
	}
}
