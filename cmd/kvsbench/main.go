// Command kvsbench regenerates the paper's end-to-end kernel-feature
// experiments (§VI–VII): Fig. 8 (Redis p99 under zswap/ksm variants),
// Table IV (offload latency breakdown) and the host-CPU-cycle analysis.
// The chosen sections run as self-contained jobs on one shared pool of
// GOMAXPROCS workers. Fig. 8 runs under its calibrated seed, so the output
// does not depend on the worker count.
//
// Usage:
//
//	kvsbench [-feature zswap|ksm|both] [-workloads A,B,C,D] [-ms 300] [-zipfian] [fig8|table4|cycles|all]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	cxl2sim "repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is a parsed command line.
type options struct {
	sections  []string
	features  []string
	workloads []cxl2sim.Workload
	cfg       cxl2sim.Fig8Config
}

// parseArgs parses and validates the command line. On a bad flag,
// section, feature or workload, or a non-positive -ms, it prints the
// problem and the usage to stderr and returns an error.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("kvsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	feature := fs.String("feature", "both", "zswap, ksm or both")
	workloads := fs.String("workloads", "A,B,C,D", "comma-separated YCSB workloads")
	ms := fs.Int("ms", 300, "simulated milliseconds per run")
	zipf := fs.Bool("zipfian", false, "use YCSB's zipfian key distribution instead of the paper's uniform")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: kvsbench [flags] [fig8|table4|cycles|all]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	fail := func(format string, a ...any) (options, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(stderr, "kvsbench:", err)
		fs.Usage()
		return options{}, err
	}

	if *ms <= 0 {
		return fail("-ms must be positive, got %d", *ms)
	}
	o := options{cfg: cxl2sim.Fig8Config{
		Duration: cxl2sim.Time(*ms) * cxl2sim.Millisecond,
		Seed:     cxl2sim.Fig8CalibratedSeed,
		Zipfian:  *zipf,
	}}
	switch which := fs.Arg(0); {
	case fs.NArg() > 1:
		return fail("want at most one section, got %q", fs.Args())
	case which == "" || which == "all":
		o.sections = []string{"table4", "fig8"}
	case which == "fig8" || which == "table4" || which == "cycles":
		o.sections = []string{which}
	default:
		return fail("unknown section %q", which)
	}
	switch *feature {
	case "both":
		o.features = []string{"zswap", "ksm"}
	case "zswap", "ksm":
		o.features = []string{*feature}
	default:
		return fail("unknown -feature %q", *feature)
	}
	for _, name := range strings.Split(*workloads, ",") {
		i := slices.IndexFunc(cxl2sim.Workloads(), func(w cxl2sim.Workload) bool {
			return strings.EqualFold(w.String(), strings.TrimSpace(name))
		})
		if i < 0 {
			return fail("unknown workload %q in -workloads", name)
		}
		w := cxl2sim.Workloads()[i]
		if slices.Contains(o.workloads, w) {
			return fail("workload %v listed twice in -workloads", w)
		}
		o.workloads = append(o.workloads, w)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	all := cxl2sim.KernelSections(o.features, o.workloads, o.cfg)
	var secs []cxl2sim.ExperimentSection
	for _, name := range o.sections {
		s, _ := cxl2sim.ExperimentSectionByName(all, name)
		secs = append(secs, s)
	}
	if _, err := cxl2sim.RunExperimentSections(stdout, secs, cxl2sim.JobOptions{}); err != nil {
		fmt.Fprintln(stderr, "kvsbench:", err)
		return 1
	}
	return 0
}
