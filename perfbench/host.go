package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// hostSnap is a point-in-time reading of the process's own cost
// counters: CPU time from getrusage, heap allocations and GC CPU time
// from runtime/metrics.
type hostSnap struct {
	cpu     time.Duration
	allocs  uint64
	gcCPU   float64
	totCPU  float64
	maxRSSk int64
}

var hostSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() hostSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(hostSamples))
	copy(s, hostSamples)
	metrics.Read(s)
	return hostSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		totCPU:  s[2].Value.Float64(),
		maxRSSk: ru.Maxrss,
	}
}

// hostCost is the host cost of a measured phase of ops operations.
type hostCost struct {
	cpuSPerOp   float64
	allocsPerOp float64
	gcCPUFrac   float64
}

func hostDelta(a, b hostSnap, ops int) hostCost {
	n := float64(ops)
	return hostCost{
		cpuSPerOp:   ratio((b.cpu - a.cpu).Seconds(), n),
		allocsPerOp: ratio(float64(b.allocs-a.allocs), n),
		gcCPUFrac:   ratio(b.gcCPU-a.gcCPU, b.totCPU-a.totCPU),
	}
}

// maxRSSMB is the peak resident set of the process so far (Linux
// reports ru_maxrss in KiB).
func maxRSSMB() float64 { return float64(readHost().maxRSSk) / 1024 }
