package main

import "runtime"

// probeWords sizes the host probe's working set: 16 MiB, beyond a typical
// last-level cache share, so the probe sees memory as well as the core.
const probeWords = 2 << 20

// hostProbe times a fixed CPU and memory kernel in milliseconds: fill a
// buffer from an xorshift stream, then chase a data-dependent index through
// it. The work never changes, so a change in its time is the host, not the
// code; it runs at the start and end of every run.
func hostProbe() float64 {
	runtime.GC() // settle the collector so the probe times the host alone
	start := now()
	buf := make([]uint64, probeWords)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	idx, sum := uint64(0), uint64(0)
	for i := 0; i < probeWords/8; i++ {
		v := buf[idx%probeWords]
		sum += v
		idx = v ^ sum
	}
	probeSink = sum
	return ms(since(start))
}

// probeSink keeps the compiler from discarding the probe's work.
var probeSink uint64
