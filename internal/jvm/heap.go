package jvm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"jasworkload/internal/mem"
)

// ObjID identifies a live heap object.
type ObjID uint32

// nilObj marks an unused object-table slot.
const nilObj = ^ObjID(0)

// GCConfig parameterizes the flat-heap, non-generational
// mark-sweep-compact collector (the paper's J9 throughput collector).
type GCConfig struct {
	// MinReuseBytes: free chunks smaller than this are not put on the free
	// list. They are the paper's "dark matter", reclaimed only by
	// compaction or by coalescing with a freed neighbor.
	MinReuseBytes uint64
	// LowWaterBytes: a collection is requested when allocatable free space
	// drops below this.
	LowWaterBytes uint64

	// Pause-time model (simulated nanoseconds).
	MarkNsPerObj     float64
	MarkNsPerByte    float64 // live bytes traversed
	SweepNsPerObj    float64 // dead objects reclaimed
	SweepNsPerByte   float64 // whole heap walked
	CompactNsPerByte float64 // live bytes moved
}

// DefaultGCConfig returns timings calibrated to the paper's Figure 3
// (300-400 ms pauses at ~195 MB live in a 1 GB heap, mark ~80% of pause).
func DefaultGCConfig() GCConfig {
	return GCConfig{
		MinReuseBytes:    768,
		LowWaterBytes:    24 << 20,
		MarkNsPerObj:     260,
		MarkNsPerByte:    1.35,
		SweepNsPerObj:    110,
		SweepNsPerByte:   0.055,
		CompactNsPerByte: 2.2,
	}
}

// GCEvent is one verbosegc record.
type GCEvent struct {
	Seq        int
	AtMS       float64 // simulated time of the collection
	MarkMS     float64
	SweepMS    float64
	CompactMS  float64
	Compacted  bool
	LiveBytes  uint64 // reachable bytes after mark
	FreedBytes uint64
	DarkBytes  uint64 // accumulated dark matter after sweep
	FreeBytes  uint64 // allocatable free space after sweep
	UsedBytes  uint64 // heap minus allocatable free (live + dark + fragmentation)
	LiveObjs   int
}

// PauseMS is the total stop-the-world pause.
func (e GCEvent) PauseMS() float64 { return e.MarkMS + e.SweepMS + e.CompactMS }

// ErrHeapFull is returned when an allocation cannot be satisfied; the
// mutator should collect and retry (and compact if it persists).
var ErrHeapFull = errors.New("jvm: heap full")

type span struct{ addr, size uint64 }

type object struct {
	addr   uint64
	size   uint32
	refs   []ObjID
	alive  bool
	marked uint32 // mark epoch
}

// Heap is the flat Java heap: an object table, an address-ordered free
// list, dark-matter tracking and the collector.
type Heap struct {
	cfg    GCConfig
	region *mem.Region

	objects []object
	freeIDs []ObjID
	roots   map[ObjID]struct{}

	free []span // address-sorted, allocatable (size >= MinReuseBytes)
	dark []span // address-sorted, too small to reuse
	next int    // next-fit cursor into free

	epoch     uint32
	liveBytes uint64 // as of the last mark
	allocated uint64 // bytes currently allocated to objects
	gcSeq     int
	events    []GCEvent

	// GC scratch space, retained across collections so steady-state
	// collects allocate nothing (they are the hottest allocation sites
	// in a full report build otherwise).
	markScratch    []ObjID
	spanScratch    []span
	mergeScratch   []span
	compactScratch []compactPair
}

// compactPair is Compact's per-live-object scratch record.
type compactPair struct {
	id   ObjID
	addr uint64
}

// NewHeap builds a heap over the given region.
func NewHeap(cfg GCConfig, region *mem.Region) (*Heap, error) {
	if region == nil || region.Size == 0 {
		return nil, fmt.Errorf("jvm: nil or empty heap region")
	}
	if cfg.MinReuseBytes == 0 {
		return nil, fmt.Errorf("jvm: zero MinReuseBytes")
	}
	return &Heap{
		cfg:    cfg,
		region: region,
		roots:  map[ObjID]struct{}{},
		free:   []span{{addr: region.Base, size: region.Size}},
	}, nil
}

// Size returns the heap capacity in bytes.
func (h *Heap) Size() uint64 { return h.region.Size }

// FreeBytes returns the allocatable free space.
func (h *Heap) FreeBytes() uint64 {
	var n uint64
	for _, s := range h.free {
		n += s.size
	}
	return n
}

// DarkBytes returns the accumulated dark matter.
func (h *Heap) DarkBytes() uint64 {
	var n uint64
	for _, s := range h.dark {
		n += s.size
	}
	return n
}

// UsedBytes returns heap size minus allocatable free space — what verbosegc
// reports as "used", which the paper observes growing ~1 MB/min from dark
// matter even though the reachable set is stable.
func (h *Heap) UsedBytes() uint64 { return h.region.Size - h.FreeBytes() }

// AllocatedBytes returns bytes held by live (not yet collected) objects.
func (h *Heap) AllocatedBytes() uint64 { return h.allocated }

// LiveBytes returns the reachable bytes measured by the last mark phase.
func (h *Heap) LiveBytes() uint64 { return h.liveBytes }

// LiveObjects returns the number of allocated objects.
func (h *Heap) LiveObjects() int {
	n := 0
	for i := range h.objects {
		if h.objects[i].alive {
			n++
		}
	}
	return n
}

// NeedsGC reports whether free space fell under the low-water mark.
func (h *Heap) NeedsGC() bool { return h.FreeBytes() < h.cfg.LowWaterBytes }

// Alloc allocates size bytes and returns the new object. refs are the
// object's outgoing references (they must be alive). The object is
// unreachable until referenced by a root or another object.
func (h *Heap) Alloc(size uint32, refs ...ObjID) (ObjID, error) {
	if size == 0 {
		return nilObj, errors.New("jvm: zero-size allocation")
	}
	sz := (uint64(size) + 15) &^ 15 // 16-byte alignment like J9
	addr, ok := h.carve(sz)
	if !ok {
		return nilObj, ErrHeapFull
	}
	var id ObjID
	if n := len(h.freeIDs); n > 0 {
		id = h.freeIDs[n-1]
		h.freeIDs = h.freeIDs[:n-1]
	} else {
		h.objects = append(h.objects, object{})
		id = ObjID(len(h.objects) - 1)
	}
	o := &h.objects[id]
	o.addr = addr
	o.size = uint32(sz)
	o.refs = append(o.refs[:0], refs...)
	o.alive = true
	o.marked = 0
	h.allocated += sz
	return id, nil
}

// carve takes sz bytes from the free list (next-fit with wraparound).
func (h *Heap) carve(sz uint64) (uint64, bool) {
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
			// The remainder is too small to allocate from; it becomes dark
			// matter unless it is zero.
			if s.size > 0 {
				h.insertDark(span{addr: s.addr, size: s.size})
			}
			h.free = append(h.free[:i], h.free[i+1:]...)
			h.next = i
		} else {
			h.next = i
		}
		return addr, true
	}
	return 0, false
}

func (h *Heap) insertDark(s span) {
	i := sort.Search(len(h.dark), func(i int) bool { return h.dark[i].addr >= s.addr })
	h.dark = append(h.dark, span{})
	copy(h.dark[i+1:], h.dark[i:])
	h.dark[i] = s
}

// AddRoot makes id a GC root (thread stack, static, session registry...).
func (h *Heap) AddRoot(id ObjID) { h.roots[id] = struct{}{} }

// RemoveRoot drops a root; the object (graph) becomes collectable unless
// referenced elsewhere.
func (h *Heap) RemoveRoot(id ObjID) { delete(h.roots, id) }

// AddRef appends a reference from parent to child (e.g., a cache insert).
// References arrive one at a time, so the ref list skips the 1→2→4
// doubling ladder and jumps straight to a small headroom — across a run
// that ladder was the single largest allocation count in BuildReport.
func (h *Heap) AddRef(parent, child ObjID) {
	o := &h.objects[parent]
	if len(o.refs) == cap(o.refs) && cap(o.refs) < 8 {
		refs := make([]ObjID, len(o.refs), 8)
		copy(refs, o.refs)
		o.refs = refs
	}
	o.refs = append(o.refs, child)
}

// ClearRefs drops all outgoing references of id (e.g., a cache clear).
func (h *Heap) ClearRefs(id ObjID) { h.objects[id].refs = h.objects[id].refs[:0] }

// Addr returns the heap address of an object (for the memory trace).
func (h *Heap) Addr(id ObjID) uint64 { return h.objects[id].addr }

// ObjSize returns the allocated size of an object.
func (h *Heap) ObjSize(id ObjID) uint32 { return h.objects[id].size }

// Alive reports whether the object has not been collected.
func (h *Heap) Alive(id ObjID) bool { return int(id) < len(h.objects) && h.objects[id].alive }

// Refs returns the outgoing references of id.
func (h *Heap) Refs(id ObjID) []ObjID { return h.objects[id].refs }

// Collect runs a stop-the-world mark-sweep at simulated time nowMS and
// returns the verbosegc event. Compaction does not run here; it is a
// separate decision (see Compact), matching the paper's observation that
// no compaction occurred in the measured hour.
func (h *Heap) Collect(nowMS float64) GCEvent {
	h.epoch++
	// --- Mark ---
	var liveBytes uint64
	var liveObjs int
	stack := h.markScratch[:0]
	for id := range h.roots {
		if h.objects[id].alive && h.objects[id].marked != h.epoch {
			h.objects[id].marked = h.epoch
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o := &h.objects[id]
		liveBytes += uint64(o.size)
		liveObjs++
		for _, r := range o.refs {
			ro := &h.objects[r]
			if ro.alive && ro.marked != h.epoch {
				ro.marked = h.epoch
				stack = append(stack, r)
			}
		}
	}
	h.markScratch = stack
	markMS := (h.cfg.MarkNsPerObj*float64(liveObjs) + h.cfg.MarkNsPerByte*float64(liveBytes)) / 1e6

	// --- Sweep ---
	freedSpans := h.spanScratch[:0]
	var freed uint64
	var deadObjs int
	for i := range h.objects {
		o := &h.objects[i]
		if o.alive && o.marked != h.epoch {
			freedSpans = append(freedSpans, span{addr: o.addr, size: uint64(o.size)})
			freed += uint64(o.size)
			deadObjs++
			o.alive = false
			// Keep the refs capacity: the id goes onto the free list and
			// the next Alloc/AddRef cycle on this slot refills in place
			// instead of re-growing a fresh slice per recycled object.
			o.refs = o.refs[:0]
			h.freeIDs = append(h.freeIDs, ObjID(i))
		}
	}
	h.allocated -= freed
	h.coalesce(freedSpans)
	h.spanScratch = freedSpans
	sweepMS := (h.cfg.SweepNsPerObj*float64(deadObjs) + h.cfg.SweepNsPerByte*float64(h.region.Size)) / 1e6

	h.liveBytes = liveBytes
	h.gcSeq++
	ev := GCEvent{
		Seq:        h.gcSeq,
		AtMS:       nowMS,
		MarkMS:     markMS,
		SweepMS:    sweepMS,
		LiveBytes:  liveBytes,
		FreedBytes: freed,
		DarkBytes:  h.DarkBytes(),
		FreeBytes:  h.FreeBytes(),
		UsedBytes:  h.UsedBytes(),
		LiveObjs:   liveObjs,
	}
	h.events = append(h.events, ev)
	return ev
}

// coalesce merges freed spans with the free and dark lists, reclassifying
// merged chunks: anything >= MinReuseBytes becomes allocatable; smaller
// remains dark matter.
func (h *Heap) coalesce(freed []span) {
	// free and dark are address-sorted invariants; only the freshly freed
	// spans (ordered by object id, not address) need sorting. A 3-way
	// merge then visits every span once, coalescing adjacent ones as they
	// stream out, instead of re-sorting the whole span population.
	// Freed spans are disjoint, so their addresses are unique and the
	// sorted order is fully determined.
	slices.SortFunc(freed, func(a, b span) int { return cmp.Compare(a.addr, b.addr) })
	merged := h.mergeScratch[:0]
	a, b, c := h.free, h.dark, freed
	for len(a) > 0 || len(b) > 0 || len(c) > 0 {
		var s span
		switch {
		case len(a) > 0 && (len(b) == 0 || a[0].addr <= b[0].addr) && (len(c) == 0 || a[0].addr <= c[0].addr):
			s, a = a[0], a[1:]
		case len(b) > 0 && (len(c) == 0 || b[0].addr <= c[0].addr):
			s, b = b[0], b[1:]
		default:
			s, c = c[0], c[1:]
		}
		if n := len(merged); n > 0 && merged[n-1].addr+merged[n-1].size == s.addr {
			merged[n-1].size += s.size
		} else {
			merged = append(merged, s)
		}
	}
	// Every input span has been consumed into the merge scratch, so the
	// free and dark backing arrays are dead values here and safe to
	// refill in place.
	h.free = h.free[:0]
	h.dark = h.dark[:0]
	for _, s := range merged {
		if s.size >= h.cfg.MinReuseBytes {
			h.free = append(h.free, s)
		} else {
			h.dark = append(h.dark, s)
		}
	}
	h.mergeScratch = merged[:0]
	h.next = 0
}

// Compact slides all live objects to the bottom of the heap, eliminating
// fragmentation and dark matter, and returns the pause cost. The tuned
// system never needs it during an hour-long run; the heapsweep example
// shows it kicking in for undersized heaps.
func (h *Heap) Compact(nowMS float64) GCEvent {
	live := h.compactScratch[:0]
	for i := range h.objects {
		if h.objects[i].alive {
			live = append(live, compactPair{ObjID(i), h.objects[i].addr})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].addr < live[j].addr })
	cur := h.region.Base
	var moved uint64
	for _, p := range live {
		o := &h.objects[p.id]
		if o.addr != cur {
			o.addr = cur
			moved += uint64(o.size)
		}
		cur += uint64(o.size)
	}
	h.free = h.free[:0]
	if cur < h.region.End() {
		h.free = append(h.free, span{addr: cur, size: h.region.End() - cur})
	}
	h.dark = h.dark[:0] // keep the span list's capacity for post-compact churn
	h.next = 0
	h.compactScratch = live[:0]
	compactMS := h.cfg.CompactNsPerByte * float64(moved) / 1e6
	h.gcSeq++
	ev := GCEvent{
		Seq:       h.gcSeq,
		AtMS:      nowMS,
		CompactMS: compactMS,
		Compacted: true,
		LiveBytes: h.allocated,
		FreeBytes: h.FreeBytes(),
		UsedBytes: h.UsedBytes(),
	}
	h.events = append(h.events, ev)
	return ev
}

// Events returns the verbosegc log.
func (h *Heap) Events() []GCEvent { return h.events }
