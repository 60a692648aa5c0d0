package experiments

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

func shortDuration() sim.Time { return 150 * sim.Millisecond }
func ycsbA() ycsb.Workload    { return ycsb.A }

// jobRows runs jobs on one worker under the default root seed and
// collects their []T rows in job order, failing on any job error.
func jobRows[T any](tb testing.TB, jobs []runner.Job) []T {
	tb.Helper()
	results := runner.Run(jobs, runner.Options{Workers: 1})
	if _, err := runner.Values(results); err != nil {
		tb.Fatal(err)
	}
	return CollectRows[T](results)
}
