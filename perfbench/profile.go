package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// internalPrefix is the import path under which every simulator layer
// lives; the path element after it names the layer (module).
const internalPrefix = "repro/internal/"

// Charges outside the listed layers: samples with no repository frame at
// all (GC background workers, the scheduler), and samples whose innermost
// repository frame is the driver or the root package.
const (
	moduleRuntime = "runtime"
	moduleOther   = "other"
)

// moduleMemStore is the mem package's backing store, charged apart from
// the package's DRAM timing models: the store is the functional page
// data that kernel-feature co-simulations churn, while the timing models
// sit on every device access path.
const moduleMemStore = "mem.store"

// moduleOf names the layer a symbolized frame belongs to, or "" for a
// frame outside the repository (the Go runtime, the standard library).
func moduleOf(frame string) string {
	if strings.HasPrefix(frame, internalPrefix+"mem.(*Store).") {
		return moduleMemStore
	}
	if rest, ok := strings.CutPrefix(frame, internalPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	// The root package, and this driver, which Go names "main".
	if strings.HasPrefix(frame, "repro.") || strings.HasPrefix(frame, "main.") {
		return moduleOther
	}
	return ""
}

// chargeModule picks the module one sample is charged to. stack is
// leaf-first; runtime and standard-library frames (allocation, GC
// assists, map and hash helpers) are charged to the innermost repository
// frame that called them.
func chargeModule(stack []string) string {
	for _, f := range stack {
		if m := moduleOf(f); m != "" {
			return m
		}
	}
	return moduleRuntime
}

// parseTraces reads the text of `go tool pprof -traces` and returns CPU
// time per module. Each sample block starts with a separator line; its
// first frame line carries the sample's value.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var value time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			out[chargeModule(stack)] += value
		}
		value, stack = 0, nil
	}
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // a label line ahead of the stack
			}
			value = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			stack = append(stack, fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read pprof traces: %w", err)
	}
	return out, nil
}

// layerOf is the top-level layer of a module: the mem backing store
// belongs to mem.
func layerOf(module string) string {
	if module == moduleMemStore {
		return "mem"
	}
	return module
}

// profileModules merges CPU profiles with `go tool pprof` and returns CPU
// time per module.
func profileModules(files []string) (map[string]time.Duration, error) {
	if len(files) == 0 {
		return map[string]time.Duration{}, nil
	}
	args := append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, files...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(strings.NewReader(string(text)))
}
