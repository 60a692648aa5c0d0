package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the driver
// naming the same metrics with the same units.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []entry
	for _, m := range endToEnd {
		e2e = append(e2e, entry{m.name, m.unit})
	}
	for _, m := range perLayer() {
		layer = append(layer, entry{m.name, m.unit})
	}
	same := func(what string, got, want []entry) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the driver %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, driver %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, e2e)
	same("per_layer", doc.PerLayer, layer)
	for _, w := range doc.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the driver", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the driver %d", len(doc.Workloads), len(workloads))
	}
}
