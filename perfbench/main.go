// Command perfbench is the repository's benchmark: it times the host cost
// of the simulator's user-facing workloads end to end and attributes it to
// the simulator's layers.
//
//	perfbench --workload device|traffic|kvs|serve --seed N --seconds S --trace 0|1
//
// Each repetition runs in a fresh process (this binary re-executed with
// -child), so no process-wide cache warmed by one repetition makes the
// next cheaper, and each repetition's CPU time and peak RSS are its own.
// Repetitions repeat until S seconds have passed. With --trace 0 the last
// line of standard output is a JSON object with the end-to-end metrics;
// with --trace 1 untraced and traced repetitions alternate, and the line
// carries the per-layer metrics of the traced ones. METRICS.md lists every
// metric and the workload it is meant to move.
package main

import (
	"fmt"
	"os"
)

// childFlag marks a re-executed repetition.
const childFlag = "-child"

func main() {
	if len(os.Args) > 1 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2:]))
	}
	if err := driverMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
