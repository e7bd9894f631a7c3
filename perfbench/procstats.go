package main

import (
	"crypto/sha256"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSnap is a process-wide reading of the Go runtime and CPU counters.
type procSnap struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcPause      time.Duration
	cpu          time.Duration
}

// procDelta is the difference of two snapshots.
type procDelta procSnap

var procSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readProc() procSnap {
	s := make([]metrics.Sample, len(procSamples))
	for i, name := range procSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	snap := procSnap{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcPause:      histSum(s[3].Value.Float64Histogram()),
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		snap.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return snap
}

// histSum estimates a duration histogram's total from bucket midpoints
// (the runtime exports pauses only as a histogram).
func histSum(h *metrics.Float64Histogram) time.Duration {
	var total float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		total += float64(c) * (lo + hi) / 2
	}
	return time.Duration(total * 1e9)
}

func (a procSnap) sub(b procSnap) procDelta {
	return procDelta{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcPause:      a.gcPause - b.gcPause,
		cpu:          a.cpu - b.cpu,
	}
}

// liveHeap forces collections and returns the live heap bytes marked. The
// second collection also frees what the first one kept in sync.Pool victim
// caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// calibrate times a fixed CPU-bound reference loop, SHA-256 over 16 MiB in
// 64 KiB blocks, five times on one goroutine and returns the median in
// milliseconds. The loop involves none of the program, so its change from
// run to run is the machine's own speed: printed beside the metrics, it
// lets a reader tell a slower machine from a slower program.
func calibrate() float64 {
	block := make([]byte, 64<<10)
	for i := range block {
		block[i] = byte(i * 131)
	}
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		for j := 0; j < 256; j++ {
			sum := sha256.Sum256(block)
			block[j] ^= sum[0]
		}
		times[i] = float64(time.Since(t0)) / 1e6
	}
	return median(times)
}
