package jvm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"jasworkload/internal/mem"
)

// refObject is the reference heap's object record: plain alive and marked
// flags and an owned reference slice.
type refObject struct {
	addr   uint64
	size   uint32
	refs   []ObjID
	alive  bool
	marked bool
}

// refHeap is the naive model Heap is checked against. It keeps the same
// allocation policy (next-fit, LIFO id reuse, dark remainders) but marks
// with flags cleared before every collection and coalesces by re-sorting
// the whole span population.
type refHeap struct {
	cfg        GCConfig
	base, end  uint64
	objects    []refObject
	freeIDs    []ObjID
	roots      map[ObjID]bool
	free, dark []span
	next       int
	liveBytes  uint64
	allocated  uint64
	gcSeq      int
}

func newRefHeap(cfg GCConfig, r *mem.Region) *refHeap {
	return &refHeap{
		cfg: cfg, base: r.Base, end: r.End(),
		roots: map[ObjID]bool{},
		free:  []span{{addr: r.Base, size: r.Size}},
	}
}

func spanSum(ss []span) uint64 {
	var n uint64
	for _, s := range ss {
		n += s.size
	}
	return n
}

func (h *refHeap) alloc(size uint32, refs ...ObjID) (ObjID, error) {
	if size == 0 {
		return nilObj, errors.New("zero-size allocation")
	}
	sz := (uint64(size) + 15) &^ 15
	addr, ok := h.carve(sz)
	if !ok {
		return nilObj, ErrHeapFull
	}
	var id ObjID
	if n := len(h.freeIDs); n > 0 {
		id = h.freeIDs[n-1]
		h.freeIDs = h.freeIDs[:n-1]
	} else {
		h.objects = append(h.objects, refObject{})
		id = ObjID(len(h.objects) - 1)
	}
	h.objects[id] = refObject{addr: addr, size: uint32(sz), refs: slices.Clone(refs), alive: true}
	h.allocated += sz
	return id, nil
}

func (h *refHeap) carve(sz uint64) (uint64, bool) {
	n := len(h.free)
	if n == 0 {
		return 0, false
	}
	if h.next >= n {
		h.next = 0
	}
	for k := 0; k < n; k++ {
		i := (h.next + k) % n
		s := &h.free[i]
		if s.size < sz {
			continue
		}
		addr := s.addr
		s.addr += sz
		s.size -= sz
		if s.size < h.cfg.MinReuseBytes {
			if s.size > 0 {
				h.dark = append(h.dark, *s)
				slices.SortFunc(h.dark, func(a, b span) int { return cmp.Compare(a.addr, b.addr) })
			}
			h.free = slices.Delete(h.free, i, i+1)
		}
		h.next = i
		return addr, true
	}
	return 0, false
}

func (h *refHeap) collect(nowMS float64) GCEvent {
	for i := range h.objects {
		h.objects[i].marked = false
	}
	var liveBytes uint64
	var liveObjs int
	var stack []ObjID
	for id := range h.roots {
		if h.objects[id].alive && !h.objects[id].marked {
			h.objects[id].marked = true
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		liveBytes += uint64(h.objects[id].size)
		liveObjs++
		for _, r := range h.objects[id].refs {
			if h.objects[r].alive && !h.objects[r].marked {
				h.objects[r].marked = true
				stack = append(stack, r)
			}
		}
	}
	markMS := (h.cfg.MarkNsPerObj*float64(liveObjs) + h.cfg.MarkNsPerByte*float64(liveBytes)) / 1e6

	all := slices.Concat(h.free, h.dark)
	var freed uint64
	var deadObjs int
	for i := range h.objects {
		o := &h.objects[i]
		if o.alive && !o.marked {
			all = append(all, span{addr: o.addr, size: uint64(o.size)})
			freed += uint64(o.size)
			deadObjs++
			*o = refObject{}
			h.freeIDs = append(h.freeIDs, ObjID(i))
		}
	}
	h.allocated -= freed
	h.regroup(all)
	sweepMS := (h.cfg.SweepNsPerObj*float64(deadObjs) + h.cfg.SweepNsPerByte*float64(h.end-h.base)) / 1e6

	h.liveBytes = liveBytes
	h.gcSeq++
	return GCEvent{
		Seq: h.gcSeq, AtMS: nowMS, MarkMS: markMS, SweepMS: sweepMS,
		LiveBytes: liveBytes, FreedBytes: freed,
		DarkBytes: spanSum(h.dark), FreeBytes: spanSum(h.free),
		UsedBytes: h.end - h.base - spanSum(h.free), LiveObjs: liveObjs,
	}
}

// regroup sorts every span by address, merges adjacent ones and splits the
// result into the free and dark lists.
func (h *refHeap) regroup(all []span) {
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.addr, b.addr) })
	var merged []span
	for _, s := range all {
		if n := len(merged); n > 0 && merged[n-1].addr+merged[n-1].size == s.addr {
			merged[n-1].size += s.size
		} else {
			merged = append(merged, s)
		}
	}
	h.free, h.dark = nil, nil
	for _, s := range merged {
		if s.size >= h.cfg.MinReuseBytes {
			h.free = append(h.free, s)
		} else {
			h.dark = append(h.dark, s)
		}
	}
	h.next = 0
}

func (h *refHeap) compact(nowMS float64) GCEvent {
	var live []ObjID
	for i := range h.objects {
		if h.objects[i].alive {
			live = append(live, ObjID(i))
		}
	}
	slices.SortFunc(live, func(a, b ObjID) int { return cmp.Compare(h.objects[a].addr, h.objects[b].addr) })
	cur := h.base
	var moved uint64
	for _, id := range live {
		o := &h.objects[id]
		if o.addr != cur {
			o.addr = cur
			moved += uint64(o.size)
		}
		cur += uint64(o.size)
	}
	h.free, h.dark = nil, nil
	if cur < h.end {
		h.free = []span{{addr: cur, size: h.end - cur}}
	}
	h.next = 0
	h.gcSeq++
	return GCEvent{
		Seq: h.gcSeq, AtMS: nowMS, CompactMS: h.cfg.CompactNsPerByte * float64(moved) / 1e6,
		Compacted: true, LiveBytes: h.allocated,
		FreeBytes: spanSum(h.free), UsedBytes: h.end - h.base - spanSum(h.free),
	}
}

// heapPair drives a Heap and a refHeap with the same operations and
// compares their whole observable state after each one.
type heapPair struct {
	t   *testing.T
	h   *Heap
	ref *refHeap
	ids []ObjID // every id ever allocated, in allocation order
}

func newHeapPair(t *testing.T, cfg GCConfig, size uint64) *heapPair {
	t.Helper()
	r, err := mem.NewAddressSpace().AddRegion("javaheap", 16<<20, size, mem.Page4K, false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHeap(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	return &heapPair{t: t, h: h, ref: newRefHeap(cfg, r)}
}

func (p *heapPair) alloc(size uint32, refs ...ObjID) (ObjID, error) {
	p.t.Helper()
	id, err := p.h.Alloc(size, refs...)
	rid, rerr := p.ref.alloc(size, refs...)
	if (err == nil) != (rerr == nil) || errors.Is(err, ErrHeapFull) != errors.Is(rerr, ErrHeapFull) || id != rid {
		p.t.Fatalf("Alloc(%d) = %d, %v; reference %d, %v", size, id, err, rid, rerr)
	}
	if err == nil {
		p.ids = append(p.ids, id)
	}
	p.check("Alloc")
	return id, err
}

func (p *heapPair) addRef(parent, child ObjID) {
	p.h.AddRef(parent, child)
	p.ref.objects[parent].refs = append(p.ref.objects[parent].refs, child)
	p.check("AddRef")
}

func (p *heapPair) clearRefs(id ObjID) {
	p.h.ClearRefs(id)
	p.ref.objects[id].refs = nil
	p.check("ClearRefs")
}

func (p *heapPair) addRoot(id ObjID) {
	p.h.AddRoot(id)
	p.ref.roots[id] = true
	p.check("AddRoot")
}

func (p *heapPair) removeRoot(id ObjID) {
	p.h.RemoveRoot(id)
	delete(p.ref.roots, id)
	p.check("RemoveRoot")
}

func (p *heapPair) collect(now float64) {
	p.t.Helper()
	if ev, want := p.h.Collect(now), p.ref.collect(now); ev != want {
		p.t.Fatalf("Collect event\n got %+v\nwant %+v", ev, want)
	}
	p.check("Collect")
}

func (p *heapPair) compact(now float64) {
	p.t.Helper()
	if ev, want := p.h.Compact(now), p.ref.compact(now); ev != want {
		p.t.Fatalf("Compact event\n got %+v\nwant %+v", ev, want)
	}
	p.check("Compact")
}

// alive returns the ids the reference heap holds alive.
func (p *heapPair) alive() []ObjID {
	var out []ObjID
	for i, o := range p.ref.objects {
		if o.alive {
			out = append(out, ObjID(i))
		}
	}
	return out
}

func (p *heapPair) check(op string) {
	p.t.Helper()
	h, ref := p.h, p.ref
	fail := func(format string, args ...any) {
		p.t.Helper()
		p.t.Fatalf("after %s (%d GCs): %s", op, ref.gcSeq, fmt.Sprintf(format, args...))
	}
	if len(h.mark) != len(ref.objects) {
		fail("object table has %d slots, reference %d", len(h.mark), len(ref.objects))
	}
	live := 0
	for i, o := range ref.objects {
		id := ObjID(i)
		if h.Alive(id) != o.alive {
			fail("Alive(%d) = %v, reference %v", id, h.Alive(id), o.alive)
		}
		if !o.alive {
			continue
		}
		live++
		if h.Addr(id) != o.addr || h.ObjSize(id) != o.size {
			fail("object %d at %#x+%d, reference %#x+%d", id, h.Addr(id), h.ObjSize(id), o.addr, o.size)
		}
		if !slices.Equal(h.Refs(id), o.refs) {
			fail("Refs(%d) = %v, reference %v", id, h.Refs(id), o.refs)
		}
	}
	if !slices.Equal(h.free, ref.free) {
		fail("free list %v, reference %v", h.free, ref.free)
	}
	if !slices.Equal(h.dark, ref.dark) {
		fail("dark list %v, reference %v", h.dark, ref.dark)
	}
	size := ref.end - ref.base
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"FreeBytes", h.FreeBytes(), spanSum(ref.free)},
		{"DarkBytes", h.DarkBytes(), spanSum(ref.dark)},
		{"UsedBytes", h.UsedBytes(), size - spanSum(ref.free)},
		{"AllocatedBytes", h.AllocatedBytes(), ref.allocated},
		{"LiveBytes", h.LiveBytes(), ref.liveBytes},
		{"LiveObjects", uint64(h.LiveObjects()), uint64(live)},
		{"Events", uint64(len(h.Events())), uint64(ref.gcSeq)},
	} {
		if c.got != c.want {
			fail("%s = %d, reference %d", c.name, c.got, c.want)
		}
	}
	if h.NeedsGC() != (spanSum(ref.free) < ref.cfg.LowWaterBytes) {
		fail("NeedsGC = %v", h.NeedsGC())
	}
}

// randomOps drives the pair with n seeded random operations, weighted so
// the heap fills up: collections come mostly from full-heap failures, and
// enough objects stay rooted to leave holes, dark matter and deep graphs.
func (p *heapPair) randomOps(rng *rand.Rand, n int) {
	pick := func(ids []ObjID) ObjID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < n; i++ {
		now := float64(i)
		live := p.alive()
		switch r := rng.Intn(1000); {
		case r < 560 || len(live) == 0:
			var size uint32
			switch q := rng.Intn(100); {
			case q == 0:
				size = 0 // rejected without a state change
			case q < 70:
				size = uint32(16 + rng.Intn(500))
			case q < 97:
				size = uint32(512 + rng.Intn(4096))
			default:
				size = uint32(16<<10 + rng.Intn(16<<10))
			}
			var refs []ObjID
			if len(live) > 0 && rng.Intn(8) == 0 {
				for k := rng.Intn(12); k > 0; k-- {
					refs = append(refs, pick(live))
				}
			}
			if _, err := p.alloc(size, refs...); errors.Is(err, ErrHeapFull) {
				p.collect(now)
			}
		case r < 800:
			p.addRef(pick(live), pick(live))
		case r < 810:
			p.clearRefs(pick(live))
		case r < 920:
			if rng.Intn(4) == 0 {
				p.addRoot(pick(p.ids)) // may be dead, and a later Alloc reuses it
			} else {
				p.addRoot(pick(live))
			}
		case r < 985:
			if len(p.ref.roots) > 0 {
				roots := make([]ObjID, 0, len(p.ref.roots))
				for id := range p.ref.roots {
					roots = append(roots, id)
				}
				slices.Sort(roots)
				p.removeRoot(pick(roots))
			}
		case r < 997:
			p.collect(now)
		default:
			p.compact(now)
		}
	}
}

func oracleConfig() GCConfig {
	cfg := DefaultGCConfig()
	cfg.LowWaterBytes = 256 << 10
	return cfg
}

// TestHeapMatchesReference drives Heap and the naive reference heap with
// the same seeded random streams of allocations (including full-heap
// failures), reference and root edits, collections and compactions, and
// requires identical GC events, objects, span lists and byte totals after
// every operation.
func TestHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			p := newHeapPair(t, oracleConfig(), 2<<20)
			p.randomOps(rand.New(rand.NewSource(seed)), 8000)
			if p.ref.gcSeq < 80 || p.h.LiveObjects() < 200 {
				t.Fatalf("stream ran %d collections and ends with %d live objects; want a fuller heap",
					p.ref.gcSeq, p.h.LiveObjects())
			}
		})
	}

	t.Run("epoch wrap", func(t *testing.T) {
		p := newHeapPair(t, oracleConfig(), 1<<20)
		p.h.epoch = math.MaxUint32 - 1
		root, _ := p.alloc(64)
		p.addRoot(root)
		kept, _ := p.alloc(64)
		p.addRef(root, kept)
		dropped, _ := p.alloc(64)
		p.addRef(root, dropped)
		p.alloc(64)  // unreachable from the start
		p.collect(0) // epoch MaxUint32
		p.clearRefs(root)
		p.addRef(root, kept)
		p.alloc(64)  // fresh and unreachable at the wrapping collection
		p.collect(1) // the epoch wraps past markFree and markFresh
		if p.h.epoch <= markFresh || p.h.Alive(dropped) {
			t.Fatalf("after the wrap: epoch %d, dropped child alive %v", p.h.epoch, p.h.Alive(dropped))
		}
		p.collect(2)
		p.randomOps(rand.New(rand.NewSource(99)), 2000)
	})

	t.Run("merge free, dark and freed in one run", func(t *testing.T) {
		p := newHeapPair(t, oracleConfig(), 1<<20)
		// Contiguous layout: guard, q (dark once freed), r1 and r2 (freed
		// later), s (free once freed), guard.
		var ids [6]ObjID
		for i, size := range []uint32{512, 256, 128, 1024, 1024, 512} {
			ids[i], _ = p.alloc(size)
		}
		g0, r1, r2, g1 := ids[0], ids[2], ids[3], ids[5]
		for _, id := range []ObjID{g0, r1, r2, g1} {
			p.addRoot(id)
		}
		p.collect(0)
		hole := p.h.Addr(g0) + 512
		if len(p.h.dark) != 1 || p.h.dark[0].addr != hole {
			t.Fatalf("q's hole is not the one dark span: %v", p.h.dark)
		}
		p.removeRoot(r1)
		p.removeRoot(r2)
		p.collect(1)
		want := span{addr: hole, size: 256 + 128 + 1024 + 1024}
		if len(p.h.dark) != 0 || !slices.Contains(p.h.free, want) {
			t.Fatalf("dark %v, free %v; want one free span %v", p.h.dark, p.h.free, want)
		}
	})
}
