package jvm

import (
	"math/rand"
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

// BenchmarkHeapSweepChurn replays the collector traffic of the heap-size
// sweep that the reqlevel-grid benchmark workload runs: the in-heap cache
// pinned at 96 MB, in heaps of 768, 384, 192 and 128 MB, each heap running
// its share of the sweep's 1,282 collections. Each heap starts with a
// baseline cache of 4 KB leaves under one root, then serves requests. A
// request allocates a rooted cluster of 120 mixed-size objects (the jas2004
// allocation profile) that dies at the next collection, and every eighth
// request opens a session whose crumbs outlive many collections and leave
// dark matter between live neighbours. Freed ids are reused LIFO, so most
// freed spans reach the sweep in descending address order (93% of adjacent
// pairs here, 91% in the sweep). The op reports the mean object-table size
// and freed spans per collection: about 30k and 3.4k, against the sweep's
// 29k and 3.1k.
func BenchmarkHeapSweepChurn(b *testing.B) {
	const (
		cacheObjs   = (96 << 20) / 4096
		clusterObjs = 120
		maxSessions = 1024
	)
	cells := []struct{ heapMB, collections int }{{768, 5}, {384, 14}, {192, 63}, {128, 1200}}
	var gcs, tableObjs, freedSpans int
	churn := func(heapMB, collections int) {
		as := mem.NewAddressSpace()
		r, err := as.AddRegion("javaheap", 16<<20, uint64(heapMB)<<20, mem.Page16M, false)
		if err != nil {
			b.Fatal(err)
		}
		h, err := NewHeap(DefaultGCConfig(), r)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		alloc := func(size uint32) ObjID {
			id, err := h.Alloc(size)
			if err == ErrHeapFull {
				h.Collect(0)
				id, err = h.Alloc(size)
			}
			if err != nil {
				b.Fatal(err)
			}
			return id
		}
		root := alloc(1024)
		h.AddRoot(root)
		for k := 0; k < cacheObjs; k++ {
			h.AddRef(root, alloc(4096))
		}
		var sessions []ObjID
		for req := 0; len(h.Events()) < collections; req++ {
			if h.NeedsGC() {
				before := h.LiveObjects()
				tableObjs += len(h.mark)
				h.Collect(float64(req))
				freedSpans += before - h.LiveObjects()
				gcs++
			}
			if req%8 == 0 {
				if len(sessions) == maxSessions {
					h.RemoveRoot(sessions[0])
					sessions = sessions[1:]
				}
				s := alloc(8192)
				h.AddRoot(s)
				for c := 1 + rng.Intn(2); c > 0; c-- {
					h.AddRef(s, alloc(uint32(96+rng.Intn(160))))
				}
				sessions = append(sessions, s)
			}
			head := alloc(256)
			h.AddRoot(head)
			for k := 0; k < clusterObjs; k++ {
				var size int
				switch p := rng.Float64(); {
				case p < 0.70:
					size = 64 + rng.Intn(448)
				case p < 0.95:
					size = 1024 + rng.Intn(7168)
				default:
					size = 16384 + rng.Intn(49152)
				}
				h.AddRef(head, alloc(uint32(size)))
			}
			h.RemoveRoot(head)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			churn(c.heapMB, c.collections)
		}
	}
	b.ReportMetric(float64(tableObjs)/float64(gcs), "objs/gc")
	b.ReportMetric(float64(freedSpans)/float64(gcs), "freed/gc")
}
