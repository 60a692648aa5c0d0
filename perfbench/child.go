package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"syscall"
	"time"
)

// childMain runs one repetition and writes its record as one JSON line
// to standard output.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench -child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	traced := fs.Bool("traced", false, "record spans")
	profile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	spawnNS := fs.Int64("spawn-ns", 0, "wall-clock time in ns at which the driver started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	spawn := time.Unix(0, *spawnNS)
	r := newRep(*seed, *traced, spawn)
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	w.run(r)
	end := time.Now()
	if *profile != "" {
		pprof.StopCPUProfile()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
		return 1
	}
	rec := r.rec
	rec.SetupS = r.dispatched.Sub(spawn).Seconds()
	rec.WallS = end.Sub(spawn).Seconds()
	if rec.WorkS == 0 {
		rec.WorkS = end.Sub(r.dispatched).Seconds()
	}
	rec.CPUS = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime)).Seconds()
	rec.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	rec.Digest = digest(r.out.Bytes())
	rec.Spans = r.tr.spans
	calWall, calCPU := calibrate()
	rec.CalWallS, rec.CalCPUS = calWall.Seconds(), calCPU.Seconds()
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
