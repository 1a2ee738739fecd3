package jvm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
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

// Mark words. Every object-table slot has one; any value other than these
// two is the epoch of the collection that last marked the object.
const (
	markFree  = 0 // unused slot: the object was collected or never existed
	markFresh = 1 // allocated since the last mark
)

// objRec is an object's placement in the heap and its block of the
// reference arena: refs[refOff : refOff+nrefs] are its references, with
// room for refCap. A free slot has no block (refOff and refCap are 0).
type objRec struct {
	addr   uint64
	size   uint32
	nrefs  uint32 // 0 for a free slot
	refOff uint32
	refCap uint32
}

// Heap is the flat Java heap: an object table, an address-ordered free
// list, dark-matter tracking and the collector.
//
// The object table is two parallel arrays indexed by ObjID, and the
// references of every object share one arena. None of the three holds a
// pointer, so Go's collector never scans them, and mark's per-reference
// check and sweep's scan read a 4-byte mark word per object.
type Heap struct {
	cfg    GCConfig
	region *mem.Region

	mark       []uint32 // markFree, markFresh, or a mark epoch
	objs       []objRec
	refs       []ObjID // the reference arena
	refGarbage int     // arena entries no block owns
	freeIDs    []ObjID
	roots      map[ObjID]struct{}

	free      []span // address-sorted, allocatable (size >= MinReuseBytes)
	dark      []span // address-sorted, too small to reuse
	freeBytes uint64 // sum of free
	darkBytes uint64 // sum of dark
	next      int    // next-fit cursor into free

	epoch     uint32 // the last mark epoch; never markFree or markFresh
	liveBytes uint64 // as of the last mark
	allocated uint64 // bytes currently allocated to objects
	gcSeq     int
	events    []GCEvent

	// GC scratch space, retained across collections so steady-state
	// collects allocate nothing (they are the hottest allocation sites
	// in a full report build otherwise).
	markScratch    []ObjID
	keyScratch     []uint64
	refScratch     []ObjID
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
	if region.Size > maxHeapBytes {
		return nil, fmt.Errorf("jvm: heap region of %d bytes exceeds the %d-byte limit", region.Size, uint64(maxHeapBytes))
	}
	if cfg.MinReuseBytes == 0 {
		return nil, fmt.Errorf("jvm: zero MinReuseBytes")
	}
	return &Heap{
		cfg:       cfg,
		region:    region,
		roots:     map[ObjID]struct{}{},
		free:      []span{{addr: region.Base, size: region.Size}},
		freeBytes: region.Size,
	}, nil
}

// Size returns the heap capacity in bytes.
func (h *Heap) Size() uint64 { return h.region.Size }

// FreeBytes returns the allocatable free space.
func (h *Heap) FreeBytes() uint64 { return h.freeBytes }

// DarkBytes returns the accumulated dark matter.
func (h *Heap) DarkBytes() uint64 { return h.darkBytes }

// UsedBytes returns heap size minus allocatable free space — what verbosegc
// reports as "used", which the paper observes growing ~1 MB/min from dark
// matter even though the reachable set is stable.
func (h *Heap) UsedBytes() uint64 { return h.region.Size - h.FreeBytes() }

// AllocatedBytes returns bytes held by live (not yet collected) objects.
func (h *Heap) AllocatedBytes() uint64 { return h.allocated }

// LiveBytes returns the reachable bytes measured by the last mark phase.
func (h *Heap) LiveBytes() uint64 { return h.liveBytes }

// LiveObjects returns the number of allocated objects.
func (h *Heap) LiveObjects() int { return len(h.mark) - len(h.freeIDs) }

// NeedsGC reports whether free space fell under the low-water mark.
func (h *Heap) NeedsGC() bool { return h.FreeBytes() < h.cfg.LowWaterBytes }

// Alloc allocates size bytes and returns the new object. refs are the
// object's outgoing references (they must be alive). The object is
// unreachable until referenced by a root or another object.
func (h *Heap) Alloc(size uint32, refs ...ObjID) (ObjID, error) {
	if size == 0 {
		return nilObj, errors.New("jvm: zero-size allocation")
	}
	if size > math.MaxUint32&^15 {
		// Its 16-byte-aligned size would not fit the uint32 size field.
		return nilObj, fmt.Errorf("jvm: %d-byte allocation exceeds the largest object", size)
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
		h.mark[id] = markFresh
		o := &h.objs[id]
		o.addr, o.size, o.nrefs = addr, uint32(sz), 0
	} else {
		id = ObjID(len(h.mark))
		h.mark = append(h.mark, markFresh)
		h.objs = append(h.objs, objRec{addr: addr, size: uint32(sz)})
	}
	if len(refs) > 0 {
		o := &h.objs[id]
		if int(o.refCap) < len(refs) {
			h.growRefs(o, len(refs))
		}
		o.nrefs = uint32(copy(h.refs[o.refOff:o.refOff+o.refCap], refs))
	}
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
	for k, i := 0, h.next; k < n; k, i = k+1, i+1 {
		if i == n {
			i = 0
		}
		s := &h.free[i]
		if s.size < sz {
			continue
		}
		addr := s.addr
		s.addr += sz
		s.size -= sz
		h.freeBytes -= sz
		if s.size < h.cfg.MinReuseBytes {
			// The remainder is too small to allocate from; it becomes dark
			// matter unless it is zero.
			h.freeBytes -= s.size
			if s.size > 0 {
				h.insertDark(span{addr: s.addr, size: s.size})
			}
			h.free = append(h.free[:i], h.free[i+1:]...)
		}
		h.next = i
		return addr, true
	}
	return 0, false
}

func (h *Heap) insertDark(s span) {
	i := sort.Search(len(h.dark), func(i int) bool { return h.dark[i].addr >= s.addr })
	h.dark = append(h.dark, span{})
	copy(h.dark[i+1:], h.dark[i:])
	h.dark[i] = s
	h.darkBytes += s.size
}

// AddRoot makes id a GC root (thread stack, static, session registry...).
func (h *Heap) AddRoot(id ObjID) { h.roots[id] = struct{}{} }

// RemoveRoot drops a root; the object (graph) becomes collectable unless
// referenced elsewhere.
func (h *Heap) RemoveRoot(id ObjID) { delete(h.roots, id) }

// AddRef appends a reference from parent to child (e.g., a cache insert).
// References arrive one at a time, so a block starts with room for 8 and
// then doubles.
func (h *Heap) AddRef(parent, child ObjID) {
	o := &h.objs[parent]
	if o.nrefs == o.refCap {
		h.growRefs(o, int(o.nrefs)+1)
	}
	h.refs[o.refOff+o.nrefs] = child
	o.nrefs++
}

// growRefs gives o's block room for at least n references. A block that
// ends the arena grows in place; any other moves to the end, and its old
// entries become garbage, as do a dead object's, until a collection
// compacts the arena.
func (h *Heap) growRefs(o *objRec, n int) {
	newCap := max(n, 2*int(o.refCap), 8)
	end := int(o.refOff + o.refCap)
	if end != len(h.refs) {
		h.refGarbage += int(o.refCap)
		off := len(h.refs)
		h.refs = append(h.refs, h.refs[o.refOff:o.refOff+o.nrefs]...)
		o.refOff, o.refCap = uint32(off), o.nrefs
		end = len(h.refs)
	}
	// The entries past nrefs are never read, so they need no clearing.
	h.refs = slices.Grow(h.refs, newCap-int(o.refCap))[:end+newCap-int(o.refCap)]
	if uint64(len(h.refs)) > math.MaxUint32 {
		panic("jvm: reference arena exceeds 2^32 entries")
	}
	o.refCap = uint32(newCap)
}

// compactRefs rebuilds the arena with only the live blocks, in slot
// order, once it holds more garbage than blocks.
func (h *Heap) compactRefs() {
	if 2*h.refGarbage <= len(h.refs) {
		return
	}
	arena := h.refScratch[:0]
	for i := range h.objs {
		o := &h.objs[i]
		if o.refCap == 0 {
			continue
		}
		off := len(arena)
		arena = append(arena, h.refs[o.refOff:o.refOff+o.refCap]...)
		o.refOff = uint32(off)
	}
	h.refs, h.refScratch = arena, h.refs
	h.refGarbage = 0
}

// refsOf returns o's references.
func (h *Heap) refsOf(o objRec) []ObjID {
	return h.refs[o.refOff : o.refOff+o.nrefs : o.refOff+o.nrefs]
}

// ClearRefs drops all outgoing references of id (e.g., a cache clear).
func (h *Heap) ClearRefs(id ObjID) { h.objs[id].nrefs = 0 }

// Addr returns the heap address of an object (for the memory trace).
func (h *Heap) Addr(id ObjID) uint64 { return h.objs[id].addr }

// ObjSize returns the allocated size of an object.
func (h *Heap) ObjSize(id ObjID) uint32 { return h.objs[id].size }

// Alive reports whether the object has not been collected.
func (h *Heap) Alive(id ObjID) bool { return int(id) < len(h.mark) && h.mark[id] != markFree }

// Refs returns the outgoing references of id.
func (h *Heap) Refs(id ObjID) []ObjID { return h.refsOf(h.objs[id]) }

// Collect runs a stop-the-world mark-sweep at simulated time nowMS and
// returns the verbosegc event. Compaction does not run here; it is a
// separate decision (see Compact), matching the paper's observation that
// no compaction occurred in the measured hour.
func (h *Heap) Collect(nowMS float64) GCEvent {
	// A fresh epoch differs from every mark word of a live object: those
	// hold markFresh or the previous epoch, since sweep frees everything
	// else. On wrap-around the epoch skips the two reserved values.
	h.epoch++
	if h.epoch <= markFresh {
		h.epoch = markFresh + 1
	}
	epoch, mark := h.epoch, h.mark
	// --- Mark ---
	// Map iteration order varies, but the marked set is the closure of the
	// roots whatever order they are pushed in, and the live totals are sums.
	var liveBytes uint64
	var liveObjs int
	stack := h.markScratch[:0]
	for id := range h.roots {
		if m := mark[id]; m != markFree && m != epoch {
			mark[id] = epoch
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o := h.objs[id]
		liveBytes += uint64(o.size)
		liveObjs++
		for _, r := range h.refsOf(o) {
			if m := mark[r]; m != markFree && m != epoch {
				mark[r] = epoch
				if h.objs[r].nrefs > 0 {
					stack = append(stack, r)
					continue
				}
				// A leaf is counted here rather than pushed and popped.
				liveBytes += uint64(h.objs[r].size)
				liveObjs++
			}
		}
	}
	h.markScratch = stack
	markMS := (h.cfg.MarkNsPerObj*float64(liveObjs) + h.cfg.MarkNsPerByte*float64(liveBytes)) / 1e6

	// --- Sweep ---
	keys := h.keyScratch[:0]
	var freed uint64
	for i, m := range mark {
		if m == markFree || m == epoch {
			continue
		}
		o := &h.objs[i]
		keys = append(keys, h.spanKey(*o))
		freed += uint64(o.size)
		mark[i] = markFree
		// The dead object's block becomes arena garbage.
		h.refGarbage += int(o.refCap)
		o.nrefs, o.refOff, o.refCap = 0, 0, 0
		h.freeIDs = append(h.freeIDs, ObjID(i))
	}
	deadObjs := len(keys)
	h.allocated -= freed
	h.coalesce(keys)
	h.keyScratch = keys
	h.compactRefs()
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
		DarkBytes:  h.darkBytes,
		FreeBytes:  h.freeBytes,
		UsedBytes:  h.UsedBytes(),
		LiveObjs:   liveObjs,
	}
	h.events = append(h.events, ev)
	return ev
}

// Span sort keys pack an object's granule offset into the heap above its
// size in granules, so ordering keys orders spans by address. A size is a
// uint32, so it needs 28 bits in 16-byte granules; the offset gets the
// other 36, which bounds the heap at 1 TB.
const (
	granuleShift = 4
	keySizeBits  = 32 - granuleShift
	maxHeapBytes = 1 << (64 - keySizeBits + granuleShift)
)

func (h *Heap) spanKey(o objRec) uint64 {
	return (o.addr-h.region.Base)>>granuleShift<<keySizeBits | uint64(o.size)>>granuleShift
}

func (h *Heap) keySpan(k uint64) span {
	return span{
		addr: h.region.Base + k>>keySizeBits<<granuleShift,
		size: (k & (1<<keySizeBits - 1)) << granuleShift,
	}
}

// coalesce merges freed spans, given as span keys, with the free and dark
// lists, reclassifying merged chunks: anything >= MinReuseBytes becomes
// allocatable; smaller remains dark matter.
func (h *Heap) coalesce(keys []uint64) {
	// free and dark are address-sorted invariants; only the freshly freed
	// spans (ordered by object id, not address) need sorting. A 3-way
	// merge then visits every span once, coalescing adjacent ones as they
	// stream out, instead of re-sorting the whole span population.
	// Freed spans are disjoint, so their addresses, and so their keys,
	// are unique and the sorted order is fully determined.
	slices.Sort(keys)
	merged := h.mergeScratch[:0]
	a, b, c := h.free, h.dark, keys
	var cs span // c's head, decoded
	if len(c) > 0 {
		cs = h.keySpan(c[0])
	}
	for len(a) > 0 || len(b) > 0 || len(c) > 0 {
		var s span
		switch {
		case len(a) > 0 && (len(b) == 0 || a[0].addr <= b[0].addr) && (len(c) == 0 || a[0].addr <= cs.addr):
			s, a = a[0], a[1:]
		case len(b) > 0 && (len(c) == 0 || b[0].addr <= cs.addr):
			s, b = b[0], b[1:]
		default:
			s, c = cs, c[1:]
			if len(c) > 0 {
				cs = h.keySpan(c[0])
			}
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
	h.free, h.dark = h.free[:0], h.dark[:0]
	h.freeBytes, h.darkBytes = 0, 0
	for _, s := range merged {
		if s.size >= h.cfg.MinReuseBytes {
			h.free = append(h.free, s)
			h.freeBytes += s.size
		} else {
			h.dark = append(h.dark, s)
			h.darkBytes += s.size
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
	for i, m := range h.mark {
		if m != markFree {
			live = append(live, compactPair{ObjID(i), h.objs[i].addr})
		}
	}
	slices.SortFunc(live, func(a, b compactPair) int { return cmp.Compare(a.addr, b.addr) })
	cur := h.region.Base
	var moved uint64
	for _, p := range live {
		o := &h.objs[p.id]
		if o.addr != cur {
			o.addr = cur
			moved += uint64(o.size)
		}
		cur += uint64(o.size)
	}
	h.free = h.free[:0]
	h.freeBytes = h.region.End() - cur
	if cur < h.region.End() {
		h.free = append(h.free, span{addr: cur, size: h.freeBytes})
	}
	h.dark = h.dark[:0] // keep the span list's capacity for post-compact churn
	h.darkBytes = 0
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
		FreeBytes: h.freeBytes,
		UsedBytes: h.UsedBytes(),
	}
	h.events = append(h.events, ev)
	return ev
}

// Events returns the verbosegc log.
func (h *Heap) Events() []GCEvent { return h.events }
