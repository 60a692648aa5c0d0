package main

import (
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host's speed drifts: on the 2-vCPU virtual machine this benchmark
// was sized on, CPU steal and contention from other tenants moved the
// same repetition's wall and CPU time by 30-47 % within minutes. So each
// repetition also times a fixed calibration kernel that uses no
// repository code, on as many goroutines as the repetition has Ps, right
// after its work, and the driver rescales that repetition's timings to a
// host on which the kernel takes calNominalWall and calNominalCPU per
// goroutine. Program changes move the rescaled timings; host drift moves
// the kernel's time by the same factor and cancels out. The host's speed
// also changes from one repetition to the next (the kernel's time and the
// repetition's correlated at 0.75 over single repetitions), so each
// repetition is rescaled by its own kernel time, not by the run's median.
const (
	calNominalWall = 100 * time.Millisecond
	calNominalCPU  = 100 * time.Millisecond
)

// calRounds is how many times each repetition times the kernel; the
// median of the rounds is kept.
const calRounds = 3

// calibrate times the kernel calRounds times, each on GOMAXPROCS
// goroutines at once, and returns the median wall time of a round and
// its CPU time per goroutine.
func calibrate() (wall, cpu time.Duration) {
	// Return the repetition's freed heap to the OS first, so the
	// scavenger does not run alongside the kernel.
	debug.FreeOSMemory()
	procs := runtime.GOMAXPROCS(0)
	var walls, cpus []float64
	for r := 0; r < calRounds; r++ {
		cpu0 := processCPU()
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calSum.Add(calKernel())
			}()
		}
		wg.Wait()
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, (processCPU()-cpu0).Seconds()/float64(procs))
	}
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	return sec(median(walls)), sec(median(cpus))
}

// calSum keeps the kernel's results live.
var calSum atomic.Uint64

// calKernel is fixed work shaped like a simulator's host cost: map
// inserts and lookups with small allocations, a sort, a floating-point
// series like the Zipf normaliser, and hashing.
func calKernel() uint64 {
	rnd := rand.New(rand.NewSource(1))
	type node struct {
		key  uint64
		data [6]uint64
	}
	m := make(map[uint64]*node)
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = rnd.Uint64()
		m[keys[i]] = &node{key: keys[i]}
	}
	var acc uint64
	for r := 0; r < 4; r++ {
		for _, k := range keys {
			acc += m[k].key >> 7
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var f float64
	for i := 1; i <= 200000; i++ {
		f += math.Pow(float64(i), -0.99)
	}
	acc += uint64(f)
	buf := make([]byte, 2<<20)
	rnd.Read(buf)
	for r := 0; r < 4; r++ {
		h := sha256.Sum256(buf)
		acc += uint64(h[0])
	}
	return acc + keys[len(keys)/2]
}

// processCPU is the process's user+system CPU time so far. getrusage
// on the calling process cannot fail on Linux, so an error reads as 0.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}
