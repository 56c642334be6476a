package main

import (
	"sync"
	"time"
)

// The machine this runs on changes speed by more than the benchmark's
// bounds: on a shared virtual machine the same repeat took 0.55 s in
// one quarter of an hour and 0.35 s in the next, with no steal time
// to show for it. So a run times a
// calibration probe — fixed work that depends on nothing but the
// machine — between its set-ups and repeats, and reports setup_s and
// rate_per_s at a reference speed: scaled by the probe's median time
// over calibRef.

// calibRef is the probe time the end-to-end timings are scaled to, in
// seconds. On a two-vCPU Xeon virtual machine the probe took about
// 25 ms in its fast spells and 41 ms in its slow ones.
const calibRef = 0.030

// calibSamples holds this run's probe times, in seconds.
var calibSamples []float64

// calibTables are the probe's working sets, one per goroutine,
// allocated once so that a probe allocates nothing.
var calibTables [2][]uint32

// calibSample runs the probe once and records its time. Callers run it
// only while nothing else in the process is busy.
func calibSample() { calibSamples = append(calibSamples, calibrate()) }

// calibrate runs the probe and returns its wall time in seconds: a
// fixed amount of integer work on each of two goroutines (one per
// core), hashing into a 1 MiB table apiece — branchy, cache-resident
// work like the workloads' own.
func calibrate() float64 {
	const size = 1 << 18
	var wg sync.WaitGroup
	start := time.Now()
	for g := range calibTables {
		if calibTables[g] == nil {
			calibTables[g] = make([]uint32, size)
		}
		wg.Add(1)
		go func(t []uint32, x uint32) {
			defer wg.Done()
			clear(t)
			for n := 0; n < 1<<21; n++ {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				j := x & (size - 1)
				if t[j]&1 == 0 {
					t[j] += x
				} else {
					x += t[(j*7)&(size-1)]
				}
			}
			t[0] = x
		}(calibTables[g], uint32(g)+0x9e3779b9)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}
