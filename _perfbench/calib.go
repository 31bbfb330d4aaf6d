package main

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is a share of a machine whose speed
// drifts by up to 2x over minutes, in CPU time as well as wall time. A
// fixed calibration kernel, which calls nothing in the program, is timed
// before and after every set-up and every one-second slice of a timed
// window, and the end-to-end timings are scaled by refCalibMs over the
// median of those calibrations (rmtd's request latency has a calibration
// of its own, rmtdSession.roundTrip). The timings therefore read as they
// would on a host that runs the kernel in refCalibMs: a change to the
// program moves them, a change in host speed between runs mostly does not.

// refCalibMs is the kernel's time on the reference host: the median of
// calibrate on the 2-core host the benchmark was sized on.
const refCalibMs = 9.0

const (
	calibWords = 1 << 16 // 256 KiB of uint32: a core's L2, not memory
	calibIters = 1 << 19
	calibReps  = 4
)

// calibTable is a global array, not a heap object, so it does not count
// toward peak_heap_mb.
var calibTable = func() (t [calibWords]uint32) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x = splitmix64(x)
		t[i] = uint32(x)
	}
	return t
}()

var calibSink [parallelism]uint32

// calibKernel mixes what the simulator's stepping does: data-dependent
// branches and integer arithmetic on a hot set that fits L1, and dependent
// loads scattered over a table that fits L2. It stays off main memory,
// whose latency on a shared host varies far more than the simulator's
// speed does.
func calibKernel(lane int) uint32 {
	t := &calibTable
	const hot = 1<<13 - 1 // 32 KiB
	idx, acc := uint32(lane*7919), uint32(lane)
	for i := uint32(0); i < calibIters; i++ {
		x := t[idx&hot]
		switch x & 3 {
		case 0:
			acc += x ^ i
		case 1:
			acc = acc*2654435761 + x
		case 2:
			acc ^= x >> (i & 15)
		default:
			acc -= x | i
		}
		if i&7 == 0 {
			idx = t[(idx^acc)&(calibWords-1)]
		} else {
			idx += x >> 20
		}
	}
	return acc
}

// calibrate runs the kernel calibReps times on parallelism goroutines at
// once, as the workloads load both cores, and returns each repeat's mean
// per-lane wall time in milliseconds. It first lets any garbage-collection
// cycle the workload left running finish, and holds the collector off
// while it runs, so the times are the host's and not the workload's
// garbage. Each lane holds its own thread and waits until every lane is
// running before it starts its clock: otherwise the OS may start both
// threads on one vCPU, and a repeat reads up to 20% slow for it. Wall time,
// not thread CPU time, because time the host takes a vCPU away (steal)
// slows the workloads' wall time too.
func calibrate() []float64 {
	// Disabling the collector waits for a running mark phase to end.
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var out []float64
	for r := 0; r < calibReps; r++ {
		var ns [parallelism]int64
		var ready atomic.Int32
		var wg sync.WaitGroup
		for lane := 0; lane < parallelism; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				for ready.Add(1); ready.Load() < parallelism; {
				}
				t0 := time.Now()
				calibSink[lane] = calibKernel(lane)
				ns[lane] = time.Since(t0).Nanoseconds()
			}(lane)
		}
		wg.Wait()
		var sum int64
		for _, n := range ns {
			sum += n
		}
		out = append(out, float64(sum)/parallelism/1e6)
	}
	return out
}

// speedFactor is the scale from host time to reference-host time, given
// the calibrations taken around the timed work.
func speedFactor(calibMs []float64) float64 {
	return refCalibMs / median(calibMs)
}
