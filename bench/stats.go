package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The reductions below duplicate a few lines of internal/stats on purpose:
// what a metric means must not move when the program's own code does.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

const mib = 1 << 20

// cpuNS is the process's user+system CPU time so far.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB is the process's high-water resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMiB forces a collection and returns what survived it. It collects
// twice: a sync.Pool's contents survive one cycle in its victim cache, and
// how full the engine's pools happen to be is not memory a study needs.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mib
}

// memCounters are the cumulative allocator/collector counters a phase
// brackets to get its own share.
type memCounters struct {
	mallocs, bytes, pauseNS uint64
	cycles                  uint32
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.NumGC}
}

func (a memCounters) since(b memCounters) memCounters {
	return memCounters{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pauseNS - b.pauseNS, a.cycles - b.cycles}
}

func (a *memCounters) add(b memCounters) {
	a.mallocs += b.mallocs
	a.bytes += b.bytes
	a.pauseNS += b.pauseNS
	a.cycles += b.cycles
}

// splitmix is the harness's own input generator (spec mixes, synthetic
// traces): a splitmix64 stream, so inputs depend on -seed and nothing else.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
