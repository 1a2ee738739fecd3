package jvm

import (
	"testing"

	"jasworkload/internal/mem"
)

// BenchmarkHeapCollect measures one allocate-then-collect cycle in steady
// state: each iteration allocates a batch of mixed-size objects, keeps
// every eighth one rooted in a bounded window (the oldest roots are
// dropped), and runs a mark-sweep, whose coalesce sorts the freed spans.
func BenchmarkHeapCollect(b *testing.B) {
	as := mem.NewAddressSpace()
	r, err := as.AddRegion("javaheap", 16<<20, 64<<20, mem.Page16M, false)
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewHeap(DefaultGCConfig(), r)
	if err != nil {
		b.Fatal(err)
	}
	const batch, window = 20000, 2000
	roots := make([]ObjID, 0, window)
	var oldest int
	cycle := func(now float64) {
		for i := 0; i < batch; i++ {
			id, err := h.Alloc(uint32(32 + (i*37)%1024))
			if err != nil {
				b.Fatal(err)
			}
			if i%8 != 0 {
				continue
			}
			h.AddRoot(id)
			if len(roots) < window {
				roots = append(roots, id)
			} else {
				h.RemoveRoot(roots[oldest])
				roots[oldest] = id
				oldest = (oldest + 1) % window
			}
		}
		h.Collect(now)
	}
	for i := 0; i < 4; i++ {
		cycle(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(float64(i + 4))
	}
}
