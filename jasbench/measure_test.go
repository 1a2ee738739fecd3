package main

import (
	"syscall"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// seq returns 1..n, so the nearest-rank p-th percentile is ceil(p*n/100).
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: tailPercentile must sort
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantP  float64
		wantV  float64
		wantOK bool
	}{
		{10000, 99.9, 9990, true}, // 10 samples beyond p99.9
		{9999, 99, 9900, true},    // p99.9 would leave 9 beyond
		{1000, 99, 990, true},
		{999, 95, 950, true},
		{200, 95, 190, true},
		{100, 90, 90, true}, // p95 leaves 5 beyond
		{40, 75, 30, true},
		{20, 50, 10, true},
		{19, 50, 10, false}, // even the median has only 9 beyond
		{1, 50, 1, false},
	} {
		p, v, ok := tailPercentile(seq(tc.n), 10)
		if p != tc.wantP || v != tc.wantV || ok != tc.wantOK {
			t.Errorf("n=%d: got p%v=%v ok=%v, want p%v=%v ok=%v", tc.n, p, v, ok, tc.wantP, tc.wantV, tc.wantOK)
		}
	}
	if _, _, ok := tailPercentile(nil, 10); ok {
		t.Error("empty input reported ok")
	}
}

func TestCPUSecondsSumsUserAndSystem(t *testing.T) {
	ru := syscall.Rusage{
		Utime: syscall.Timeval{Sec: 2, Usec: 500000},
		Stime: syscall.Timeval{Sec: 0, Usec: 250000},
	}
	if got := cpuSeconds(&ru); got != 2.75 {
		t.Errorf("cpuSeconds = %v, want 2.75", got)
	}
}

func TestProcessCPUDeltaCountsBusyWork(t *testing.T) {
	before := processCPU()
	start := time.Now()
	x := 0
	for time.Since(start) < 100*time.Millisecond {
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	sink = x
	delta := processCPU() - before
	wall := time.Since(start).Seconds()
	// The loop is busy for its whole wall time; allow for descheduling.
	if delta < 0.02 || delta > wall+0.5 {
		t.Errorf("CPU delta %.3fs over %.3fs of busy wall time", delta, wall)
	}
	if peakRSSMB() <= 0 {
		t.Error("peak RSS not positive")
	}
}

var sink int
