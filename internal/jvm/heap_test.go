package jvm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jasworkload/internal/mem"
)

func testHeap(t *testing.T, size uint64) *Heap {
	t.Helper()
	as := mem.NewAddressSpace()
	ps := mem.Page16M
	if size < 16<<20 {
		ps = mem.Page4K
	}
	r, err := as.AddRegion("javaheap", 16<<20, size, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(DefaultGCConfig(), r)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHeapValidation(t *testing.T) {
	if _, err := NewHeap(DefaultGCConfig(), nil); err == nil {
		t.Fatal("nil region accepted")
	}
	as := mem.NewAddressSpace()
	r, _ := as.AddRegion("h", 16<<20, 16<<20, mem.Page16M, false)
	if _, err := NewHeap(GCConfig{}, r); err == nil {
		t.Fatal("zero MinReuseBytes accepted")
	}
}

func TestAllocBasics(t *testing.T) {
	h := testHeap(t, 16<<20)
	id, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Alive(id) {
		t.Fatal("fresh object dead")
	}
	if h.ObjSize(id) != 112 { // 16-byte aligned
		t.Fatalf("size = %d, want 112", h.ObjSize(id))
	}
	if h.Addr(id) < 16<<20 {
		t.Fatalf("address %#x outside region", h.Addr(id))
	}
	if _, err := h.Alloc(0); err == nil {
		t.Fatal("zero-size alloc accepted")
	}
	// In a heap with room for it, the 16-byte-aligned size of a 4 GB
	// request would overflow the object's uint32 size field.
	if _, err := testHeap(t, 8<<30).Alloc(math.MaxUint32); err == nil {
		t.Fatal("alloc whose aligned size overflows the size field accepted")
	}
	if h.AllocatedBytes() != 112 {
		t.Fatalf("allocated = %d", h.AllocatedBytes())
	}
}

func TestAllocAddressesDisjoint(t *testing.T) {
	h := testHeap(t, 16<<20)
	type iv struct{ a, b uint64 }
	var ivs []iv
	for i := 0; i < 1000; i++ {
		id, err := h.Alloc(uint32(16 + i%512))
		if err != nil {
			t.Fatal(err)
		}
		ivs = append(ivs, iv{h.Addr(id), h.Addr(id) + uint64(h.ObjSize(id))})
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].a < ivs[j].b && ivs[j].a < ivs[i].b {
				t.Fatalf("objects %d and %d overlap", i, j)
			}
		}
	}
}

func TestCollectReclaimsUnreachable(t *testing.T) {
	h := testHeap(t, 16<<20)
	root, _ := h.Alloc(1000)
	h.AddRoot(root)
	child, _ := h.Alloc(1000)
	h.AddRef(root, child)
	orphan, _ := h.Alloc(1000)

	ev := h.Collect(1000)
	if !h.Alive(root) || !h.Alive(child) {
		t.Fatal("reachable objects collected")
	}
	if h.Alive(orphan) {
		t.Fatal("orphan survived")
	}
	if ev.LiveObjs != 2 {
		t.Fatalf("live objects = %d, want 2", ev.LiveObjs)
	}
	if ev.FreedBytes != uint64(1008) {
		t.Fatalf("freed = %d, want 1008", ev.FreedBytes)
	}
	if ev.LiveBytes != 2016 {
		t.Fatalf("live = %d", ev.LiveBytes)
	}
	if ev.PauseMS() <= 0 {
		t.Fatal("zero pause")
	}
	if ev.AtMS != 1000 {
		t.Fatal("timestamp lost")
	}
}

func TestCollectTransitiveReachability(t *testing.T) {
	h := testHeap(t, 16<<20)
	// Chain of 100 objects from a root.
	prev, _ := h.Alloc(64)
	h.AddRoot(prev)
	ids := []ObjID{prev}
	for i := 0; i < 99; i++ {
		next, _ := h.Alloc(64)
		h.AddRef(prev, next)
		ids = append(ids, next)
		prev = next
	}
	h.Collect(0)
	for _, id := range ids {
		if !h.Alive(id) {
			t.Fatal("chain member collected")
		}
	}
	// Drop the root: the whole chain dies.
	h.RemoveRoot(ids[0])
	ev := h.Collect(1)
	if ev.LiveObjs != 0 {
		t.Fatalf("live after root drop = %d", ev.LiveObjs)
	}
	for _, id := range ids {
		if h.Alive(id) {
			t.Fatal("chain member survived root drop")
		}
	}
}

func TestCollectCycleDies(t *testing.T) {
	h := testHeap(t, 16<<20)
	a, _ := h.Alloc(64)
	b, _ := h.Alloc(64)
	h.AddRef(a, b)
	h.AddRef(b, a) // cycle with no root
	h.Collect(0)
	if h.Alive(a) || h.Alive(b) {
		t.Fatal("unreachable cycle survived mark-sweep")
	}
}

func TestHeapFullAndReuse(t *testing.T) {
	h := testHeap(t, 16<<20)
	var ids []ObjID
	for {
		id, err := h.Alloc(1 << 20)
		if err == ErrHeapFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if len(ids) != 16 {
		t.Fatalf("allocated %d MB objects in a 16 MB heap", len(ids))
	}
	// Nothing rooted: a collection frees everything and allocation resumes.
	h.Collect(0)
	if _, err := h.Alloc(1 << 20); err != nil {
		t.Fatalf("alloc after GC failed: %v", err)
	}
}

func TestDarkMatterAccumulation(t *testing.T) {
	h := testHeap(t, 16<<20)
	// Interleave small long-lived and small short-lived objects: the
	// short-lived ones die surrounded by live neighbors, leaving
	// non-coalescible chunks below MinReuseBytes => dark matter.
	var survivors []ObjID
	for i := 0; i < 2000; i++ {
		keep, _ := h.Alloc(128)
		h.AddRoot(keep)
		survivors = append(survivors, keep)
		_, _ = h.Alloc(128) // dies at next GC
	}
	h.Collect(0)
	if h.DarkBytes() == 0 {
		t.Fatal("no dark matter from interleaved death pattern")
	}
	// Used > live: verbosegc "used" includes the dark matter.
	if h.UsedBytes() <= h.LiveBytes() {
		t.Fatalf("used %d <= live %d despite fragmentation", h.UsedBytes(), h.LiveBytes())
	}
	// Freeing the survivors coalesces the holes away.
	for _, id := range survivors {
		h.RemoveRoot(id)
	}
	h.Collect(1)
	if h.DarkBytes() != 0 {
		t.Fatalf("dark matter %d survived full coalescing", h.DarkBytes())
	}
}

func TestCompactEliminatesDarkMatter(t *testing.T) {
	h := testHeap(t, 16<<20)
	for i := 0; i < 500; i++ {
		keep, _ := h.Alloc(200)
		h.AddRoot(keep)
		_, _ = h.Alloc(200)
	}
	h.Collect(0)
	if h.DarkBytes() == 0 {
		t.Skip("pattern produced no dark matter")
	}
	ev := h.Compact(1)
	if !ev.Compacted || ev.CompactMS <= 0 {
		t.Fatalf("compact event = %+v", ev)
	}
	if h.DarkBytes() != 0 {
		t.Fatal("dark matter survived compaction")
	}
	// One contiguous free chunk at the top.
	if len(h.free) != 1 {
		t.Fatalf("free list has %d chunks after compaction", len(h.free))
	}
	// Objects remain disjoint and inside the region.
	var last uint64
	for id := ObjID(0); int(id) < len(h.mark); id++ {
		if !h.Alive(id) {
			continue
		}
		if h.Addr(id) < last {
			t.Fatal("compaction produced overlapping objects")
		}
		last = h.Addr(id) + uint64(h.ObjSize(id))
	}
}

func TestMarkShareDominatesPause(t *testing.T) {
	h := testHeap(t, 256<<20)
	// Large live set: the paper reports mark is >80% of GC time.
	var root ObjID
	root, _ = h.Alloc(1024)
	h.AddRoot(root)
	for i := 0; i < 20000; i++ {
		id, _ := h.Alloc(8192)
		h.AddRef(root, id)
	}
	ev := h.Collect(0)
	share := ev.MarkMS / ev.PauseMS()
	if share < 0.7 || share > 0.95 {
		t.Fatalf("mark share = %.2f, want ~0.8", share)
	}
}

func TestNeedsGCWatermark(t *testing.T) {
	h := testHeap(t, 64<<20)
	if h.NeedsGC() {
		t.Fatal("fresh heap wants GC")
	}
	for {
		if _, err := h.Alloc(1 << 20); err != nil {
			break
		}
		if h.NeedsGC() {
			return // watermark crossed before exhaustion
		}
	}
	t.Fatal("NeedsGC never triggered")
}

// Property: allocation never hands out overlapping memory even across
// GC cycles with random lifetimes.
func TestAllocGCOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := testHeap(t, 4<<20)
		type rec struct {
			id   ObjID
			addr uint64
			size uint32
		}
		live := map[ObjID]rec{}
		for i := 0; i < 400; i++ {
			size := uint32(16 + rng.Intn(4096))
			id, err := h.Alloc(size)
			if err == ErrHeapFull {
				h.Collect(float64(i))
				// Everything unrooted dies; clear our mirror of unrooted.
				for k, r := range live {
					if !h.Alive(r.id) {
						delete(live, k)
					}
				}
				continue
			}
			if err != nil {
				return false
			}
			if rng.Intn(3) == 0 {
				h.AddRoot(id)
				r := rec{id, h.Addr(id), h.ObjSize(id)}
				for _, o := range live {
					if r.addr < o.addr+uint64(o.size) && o.addr < r.addr+uint64(r.size) {
						return false // overlap with a live object
					}
				}
				live[id] = r
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Accounting invariant: free + used == heap size, and allocated <= used.
func TestHeapAccountingInvariant(t *testing.T) {
	h := testHeap(t, 8<<20)
	rng := rand.New(rand.NewSource(77))
	check := func() {
		t.Helper()
		if h.FreeBytes()+h.UsedBytes() != h.Size() {
			t.Fatalf("free %d + used %d != size %d", h.FreeBytes(), h.UsedBytes(), h.Size())
		}
		if h.AllocatedBytes() > h.UsedBytes() {
			t.Fatalf("allocated %d > used %d", h.AllocatedBytes(), h.UsedBytes())
		}
	}
	for i := 0; i < 2000; i++ {
		id, err := h.Alloc(uint32(16 + rng.Intn(2000)))
		if err == ErrHeapFull {
			h.Collect(float64(i))
		} else if rng.Intn(4) == 0 {
			h.AddRoot(id)
		}
		if i%100 == 0 {
			check()
		}
	}
	check()
}

func TestClearRefs(t *testing.T) {
	h := testHeap(t, 16<<20)
	root, _ := h.Alloc(64)
	h.AddRoot(root)
	child, _ := h.Alloc(64)
	h.AddRef(root, child)
	if len(h.Refs(root)) != 1 {
		t.Fatal("ref not recorded")
	}
	h.ClearRefs(root)
	h.Collect(0)
	if h.Alive(child) {
		t.Fatal("cleared ref kept child alive")
	}
}
