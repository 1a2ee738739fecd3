package main

import (
	"math"
	"sort"
	"syscall"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile of the sorted slice s by the
// nearest-rank rule, together with how many samples lie strictly beyond it.
func nearestRank(s []float64, p float64) (value float64, beyond int) {
	// The epsilon keeps binary rounding of p (99.9 is not exact) from
	// pushing an integral rank up by one.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile reports the highest percentile of xs that still has at
// least minBeyond samples beyond it, so a tail figure is never read off a
// handful of points. With too few samples for even the median it falls
// back to the median and reports ok=false.
func tailPercentile(xs []float64, minBeyond int) (p, value float64, ok bool) {
	if len(xs) == 0 {
		return 50, 0, false
	}
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		if v, beyond := nearestRank(s, p); beyond >= minBeyond {
			return p, v, true
		}
	}
	return 50, median(xs), false
}

// cpuSeconds is the user plus system CPU time a rusage snapshot records.
func cpuSeconds(ru *syscall.Rusage) float64 {
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// processCPU returns the process's user+sys CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return cpuSeconds(&ru)
}

// peakRSSMB returns the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
