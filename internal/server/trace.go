package server

import (
	"math"
	"math/rand"

	"jasworkload/internal/isa"
	"jasworkload/internal/jvm"
)

// traceEmitter synthesizes the instruction-level view of a request: program
// counters that walk JIT-compiled method bodies and native code regions,
// data addresses drawn from the live heap objects, DB buffer frames, stacks
// and statics, branch outcomes with per-site bias, and the LARX/STCX/SYNC
// synchronization idiom.
type traceEmitter struct {
	s   *Server
	rng *rand.Rand

	mixUser   *isa.MixSampler
	mixKernel *isa.MixSampler
	mixGC     *isa.MixSampler // reset to the same seed by every EmitGC

	// Per-native-segment block walkers.
	walkers [NumSegments]blockWalker

	// Current JITed-method walk state. The current method's code base,
	// span and body offset are cached by advanceMethod: the JIT does not
	// change while a request is being emitted.
	methods   []jvm.MethodID
	methodPos int // index into methods
	bodyLeft  int // instructions left in the current body
	codeBase  uint64
	codeSpan  uint64 // bytes the body offset wraps at (>= 8)
	codeMask  uint64 // applied to the offset: all ones, or 64 KiB-1 for the interpreter loop
	bodyOff   uint64 // byte offset of the next instruction in the body
	strayPC   uint64 // cold helper-method walk (phase-driven)
	strayLeft int

	// Data-side state.
	cluster     []jvm.ObjID
	clusterIdx  int
	clusterOff  uint64
	storeIdx    int
	storeOff    uint64
	stackBase   uint64
	staticHot   uint64
	dbIdx       int
	lastLoad    uint64  // most recent PRIVATE load address (read-modify-write stores)
	gcChase     int     // GC mark-phase pointer-chase cursor
	gcField     int     // field scan position within the chased object
	affinity    uint64  // core id: selects per-CPU kernel/web/db slabs
	driftBoost  float64 // per-request-type code-footprint factor
	dataBoost   float64 // per-request-type data-coldness factor
	phase       float64 // slow background-activity modulation (0.65..1.35)
	burstLeft   int     // remaining loads of a cold sequential scan
	burstAddr   uint64
	pendingStcx bool
	stcxEA      uint64

	// Temporal-reuse ring: recent data addresses get re-touched, the way
	// compiled code re-reads the fields it just loaded. This is what gives
	// the stream its ~92% L1D load hit rate (Figure 8).
	recentEA  [32]uint64
	recentPos int
	recentN   int
	privEA    [16]uint64
	privPos   int
	privN     int

	// batch is the emitter-owned reusable buffer between the generators
	// and the consuming sink: every generator writes each instruction
	// straight into a batch slot, and instructions are delivered in
	// fixed-size batches (ConsumeBatch when the sink supports it) instead
	// of one virtual call each, with every emit entry point flushing
	// before it returns so counters are always consistent at window
	// boundaries.
	batch *isa.Batcher
}

// blockWalker produces a basic-block-shaped PC stream within a code
// footprint: runs of sequential instructions separated by jumps. Jumps are
// mostly page-local (loops, straight-line call chains within a hot
// function), sometimes to another page in a small hot working set (the
// active call graph), and occasionally to cold code anywhere in the
// footprint — the structure that gives real code its I-cache and IERAT
// locality while still having a multi-megabyte total footprint.
type blockWalker struct {
	base      uint64 // region base
	footprint uint64 // bytes of code ever executed
	hot       uint64 // bytes the hot working set may span
	pc        uint64
	blockLeft int
	pages     [12]uint64 // hot page working set (page-aligned offsets)
	pageInit  bool
	pageIdx   int
}

func (w *blockWalker) next(rng *rand.Rand, driftBoost float64) uint64 {
	if !w.pageInit {
		for i := range w.pages {
			w.pages[i] = (rng.Uint64() % (w.hot >> 12)) << 12
		}
		w.pc = w.base + w.pages[0]
		w.pageInit = true
	}
	if driftBoost <= 0 {
		driftBoost = 1
	}
	if w.blockLeft <= 0 {
		w.blockLeft = 10 + rng.Intn(22)
		r := rng.Float64()
		drift := 0.012 * driftBoost
		cold := 0.002
		switch {
		case r < 0.988-drift-cold:
			if r < 0.74 {
				// Page-local jump: loop backedge or intra-function branch.
				page := (w.pc - w.base) &^ 4095
				w.pc = w.base + page + (rng.Uint64()%1000)*4
			} else {
				// Jump within the hot page working set (active call graph).
				w.pc = w.base + w.pages[rng.Intn(len(w.pages))] + (rng.Uint64()%1000)*4
			}
		case r < 0.988-cold+drift:
			// Working-set drift: replace one hot page.
			w.pageIdx = (w.pageIdx + 1) % len(w.pages)
			w.pages[w.pageIdx] = (rng.Uint64() % (w.hot >> 12)) << 12
			w.pc = w.base + w.pages[w.pageIdx]
		default:
			// Cold code: exception paths, class loading, rare branches.
			w.pc = w.base + (rng.Uint64()%(w.footprint>>12))<<12 + (rng.Uint64()%1000)*4
		}
	}
	pc := w.pc
	w.pc += 4
	w.blockLeft--
	return pc
}

func newTraceEmitter(s *Server) *traceEmitter {
	mu, err := isa.NewMixSampler(isa.Jas2004UserMix(), s.cfg.Seed+101)
	if err != nil {
		panic("server: user mix invalid: " + err.Error())
	}
	mk, err := isa.NewMixSampler(isa.KernelMix(), s.cfg.Seed+102)
	if err != nil {
		panic("server: kernel mix invalid: " + err.Error())
	}
	mg, err := isa.NewMixSampler(isa.GCMix(), s.cfg.Seed+104)
	if err != nil {
		panic("server: gc mix invalid: " + err.Error())
	}
	l := s.layout
	e := &traceEmitter{
		s:         s,
		rng:       rand.New(rand.NewSource(s.cfg.Seed + 103)),
		mixUser:   mu,
		mixKernel: mk,
		mixGC:     mg,
		stackBase: l.Stacks.Base,
		staticHot: l.JavaStat.Base,
		batch:     isa.NewBatcher(isa.DefaultBatchCap),
	}
	e.walkers[SegWASNative] = blockWalker{base: l.WASNative.Base, footprint: 24 << 20, hot: 1 << 20}
	e.walkers[SegWebServer] = blockWalker{base: l.WebServer.Base, footprint: 6 << 20, hot: 256 << 10}
	e.walkers[SegDB2] = blockWalker{base: l.DB2.Base, footprint: 16 << 20, hot: 512 << 10}
	e.walkers[SegKernel] = blockWalker{base: l.Kernel.Base, footprint: 10 << 20, hot: 512 << 10}
	return e
}

// phaseAt models the slow background modulation every real SUT has —
// database checkpointing, log flushing, OS daemons — that makes adjacent
// sampling windows differ. It is what gives the Figure 10 correlations
// their signal: windows in a cold phase see more misses of every kind AND
// higher CPI.
func phaseAt(nowMS float64) float64 {
	t := nowMS / 1000
	return 1 + 0.30*math.Sin(2*math.Pi*t/37) + 0.12*math.Sin(2*math.Pi*t/11.3)
}

// emitRequest streams detailFrac of the request's instructions by segment.
func (e *traceEmitter) emitRequest(sink isa.Sink, rt RequestType, res Result, methods []jvm.MethodID, cluster []jvm.ObjID, detailFrac float64, nowMS float64) {
	e.phase = phaseAt(nowMS)
	// Per-CPU data (kernel per-processor areas, connection-affine buffers)
	// follows the core the request runs on.
	e.affinity = 0
	if ider, ok := sink.(interface{ CoreID() int }); ok {
		e.affinity = uint64(ider.CoreID())
	}
	e.methods = methods
	e.methodPos = 0
	e.bodyLeft = 0
	// Sampled fidelity: emit against a proportionally scaled slice of the
	// request's objects so per-line reuse in the sampled stream matches
	// per-line reuse in the full stream.
	n := int(float64(len(cluster)) * detailFrac * 8)
	if n < 4 {
		n = 4
	}
	if n > len(cluster) {
		n = len(cluster)
	}
	e.cluster = cluster[:n]
	e.clusterIdx = 0
	e.clusterOff = 0
	e.storeIdx = 0
	e.storeOff = 0
	// A new request works on new data: its temporal-reuse ring starts
	// empty (this also keeps per-core request data core-local, matching
	// the paper's near-absence of cross-chip modified sharing).
	e.recentN = 0
	e.recentPos = 0
	e.privN = 0
	e.privPos = 0
	e.lastLoad = 0
	// Worker threads are core-affine in steady state: the request reuses
	// the warm stack of the core's current pool thread.
	e.stackBase = e.s.layout.Stacks.Base + e.affinity*(1<<20)

	// Request classes exercise different slices of the code base: heavy
	// back-end classes drag in more cold EJB/persistence code, light
	// browsing-style classes stay on the hot web path. The pack encodes
	// this per-class footprint difference in its page-locality knobs; it
	// is what makes windows with different request mixes differ in I-side
	// behaviour (and drives the paper's CPI/instruction-fetch correlation).
	e.driftBoost, e.dataBoost = e.s.app.Classes[rt].Boosts()
	// Affinity above is detected on the raw sink; the stream itself goes
	// through the batch buffer.
	e.batch.Bind(sink)
	for seg := Segment(0); seg < numSegments; seg++ {
		n := int(float64(res.Segments[seg]) * detailFrac)
		if n > 0 {
			e.emitSegment(seg, n)
		}
	}
	e.batch.Flush()
}

// emitSegment streams n instructions attributed to one software component
// into the batch buffer.
func (e *traceEmitter) emitSegment(seg Segment, n int) {
	kernel := seg == SegKernel
	mix := e.mixUser
	if kernel {
		mix = e.mixKernel
	}
	b := e.batch
	for i := 0; i < n; i++ {
		ins := b.Slot()
		if e.pendingStcx {
			e.pendingStcx = false
			*ins = isa.Instr{Class: isa.ClassStcx, PC: e.nextPC(seg), EA: e.stcxEA, Size: 8, Kernel: kernel}
			b.Commit()
			continue
		}
		cl := mix.Next()
		pc := e.nextPC(seg)
		*ins = isa.Instr{Class: cl, PC: pc, Kernel: kernel}
		switch cl {
		case isa.ClassLoad:
			ins.EA = e.loadEA(seg)
			ins.Size = 8
		case isa.ClassStore:
			ins.EA = e.storeEA(seg)
			ins.Size = 8
		case isa.ClassBranchCond:
			bias := condBias(pc)
			ins.Taken = e.rng.Float64() < bias
			// Data-dependent noise rises in cold phases (different rows,
			// different paths), so mispredictions co-move with misses.
			if e.phase > 0.65 && e.rng.Float64() < 0.050*(e.phase-0.65) {
				ins.Taken = !ins.Taken
			}
			if ins.Taken {
				ins.Target = pc - 64
			}
		case isa.ClassBranchIndirect:
			if e.rng.Float64() < 0.60 {
				// Most dynamic indirect branches are returns, predicted by
				// the hardware link stack rather than the target table.
				ins.Return = true
				ins.Target = pc + 8
				break
			}
			// Call sites live at stable block positions: quantize so the
			// target predictor sees recurring sites (dynamic indirect
			// executions concentrate in a modest set of hot call sites).
			ins.PC = pc&^2047 | 0x40
			ins.Target = e.indirectTarget(seg, ins.PC)
		case isa.ClassLarx:
			ea := e.lockEA()
			ins.EA = ea
			ins.Size = 8
			e.pendingStcx = true
			e.stcxEA = ea
		}
		b.Commit()
	}
}

// nextPC produces the instruction address for the segment.
func (e *traceEmitter) nextPC(seg Segment) uint64 {
	if seg != SegWASJit {
		w := &e.walkers[seg]
		return w.next(e.rng, e.driftBoost*e.phase*e.phase)
	}
	// In cold phases, execution strays into cold helper methods (slow
	// paths, exception formatting, lazily loaded classes) — extra I-side
	// pressure that moves with everything else the cold phase drags in.
	if e.strayLeft > 0 {
		e.strayLeft--
		pc := e.strayPC
		e.strayPC += 4
		return pc
	}
	if e.phase > 0.9 && e.rng.Float64() < 0.004*(e.phase-0.9) {
		all := e.s.jit.Methods()
		m := all[e.rng.Intn(len(all))]
		if m.Compiled {
			e.strayLeft = 8 + e.rng.Intn(24)
			e.strayPC = m.CodeAddr
		}
	}
	if e.bodyLeft <= 0 {
		e.advanceMethod()
	}
	pc := e.codeBase + e.bodyOff&e.codeMask
	e.bodyLeft--
	// The body walks 4 bytes per instruction, wrapping at the code span.
	if e.bodyOff += 4; e.bodyOff >= e.codeSpan {
		e.bodyOff -= e.codeSpan
	}
	return pc
}

// advanceMethod moves to the next sampled method and caches where its
// body lives.
func (e *traceEmitter) advanceMethod() {
	e.methodPos++
	m := e.s.jit.Method(e.methods[e.methodPos%len(e.methods)])
	e.bodyLeft = m.BodyLen
	e.bodyOff = 0
	e.codeSpan = uint64(m.CodeSize)
	if e.codeSpan < 8 {
		e.codeSpan = 8
	}
	e.codeBase, e.codeMask = m.CodeAddr, ^uint64(0)
	if m.CodeAddr == 0 {
		// Interpreted: the interpreter loop lives in JVM native code.
		e.codeBase, e.codeMask = e.s.layout.JVMNative.Base, 64<<10-1
	}
}

// condBias derives a stable per-site taken probability: most compiled
// branch sites are strongly biased (guards, null checks), a few are
// data-dependent — this is what produces the paper's ~6% conditional
// misprediction rate on a gshare predictor.
func condBias(pc uint64) float64 {
	h := pc * 0x9e3779b97f4a7c15
	switch b := h >> 60; {
	case b < 12: // 75% of sites: guards, null checks — almost always one way
		return 0.985
	case b < 14: // 12.5%: loop exits and common-path tests
		return 0.91
	case b < 15: // 6.25%: data-dependent but skewed
		return 0.72
	default: // 6.25%: genuinely data-dependent
		return 0.55
	}
}

// indirectTarget picks the target of an indirect branch at the given site:
// most virtual call sites are monomorphic (stable receiver type), a
// minority are polymorphic — these produce the ~5% target misprediction
// rate, amplified by BTB capacity pressure from the large code footprint.
func (e *traceEmitter) indirectTarget(seg Segment, pc uint64) uint64 {
	h := pc * 0x9e3779b97f4a7c15
	// In cold phases, call sites see a wider mix of receiver types (cold
	// entity classes get loaded and dispatched), so target mispredictions
	// co-move with the instruction-cache pressure — the paper's observed
	// correlation between the two.
	coldPoly := e.phase > 0.9 && e.rng.Float64() < 0.022*(e.phase-0.9)
	if h&0xf0000 != 0 && !coldPoly { // ~94% monomorphic: stable per-site target
		return e.s.layout.JITCode.Base + (h>>13)%(48<<20)&^3
	}
	// Polymorphic: one of two receiver-type targets, skewed.
	var k uint64
	if e.rng.Float64() > 0.8 {
		k = 1
	}
	return e.s.layout.JITCode.Base + ((h>>13)+k*8192)%(48<<20)&^3
}

// remember records a data address in the temporal-reuse ring.
func (e *traceEmitter) remember(ea uint64) uint64 {
	e.recentEA[e.recentPos] = ea
	e.recentPos = (e.recentPos + 1) % len(e.recentEA)
	if e.recentN < len(e.recentEA) {
		e.recentN++
	}
	return ea
}

// rememberPriv records a request-private address: stores may safely
// read-modify-write these lines without creating cross-chip sharing.
func (e *traceEmitter) rememberPriv(ea uint64) uint64 {
	e.lastLoad = ea
	e.privEA[e.privPos] = ea
	e.privPos = (e.privPos + 1) % len(e.privEA)
	if e.privN < len(e.privEA) {
		e.privN++
	}
	return e.remember(ea)
}

// privReuse picks a recently loaded private line.
func (e *traceEmitter) privReuse() uint64 {
	a := e.privEA[e.rng.Intn(e.privN)]
	return a&^63 + uint64(e.rng.Intn(64))
}

// reuse re-touches a recent data address with small offset jitter
// (same-line field accesses).
func (e *traceEmitter) reuse() uint64 {
	a := e.recentEA[e.rng.Intn(e.recentN)]
	return a&^63 + uint64(e.rng.Intn(64))
}

// scratch returns the segment's per-core hot scratch area (request parse
// buffers, packed row work areas, per-CPU kernel counters): a tiny window
// that is both loaded and stored intensely.
func (e *traceEmitter) scratch(seg Segment) uint64 {
	l := e.s.layout
	off := e.affinity<<19 + uint64(e.rng.Intn(2<<10))
	switch seg {
	case SegDB2:
		return l.DBBuffer.Base + 1<<30 + off
	case SegWebServer:
		return l.WebServer.Base + 16<<20 + off
	case SegKernel:
		return l.Kernel.Base + 64<<20 + off
	default:
		return e.stackBase + uint64(e.rng.Intn(2<<10))
	}
}

// dbReplay returns an address the database recently touched.
func (e *traceEmitter) dbReplay() uint64 {
	n := len(e.s.dbAddrs)
	if n == 0 {
		return e.s.layout.DBBuffer.Base + uint64(e.rng.Intn(1<<22))
	}
	// Prefer the newest rows — the ones this very transaction touched —
	// over older rows from transactions that ran on other cores.
	span := 24
	if e.rng.Float64() < 0.2 {
		span = n
	}
	if span > n {
		span = n
	}
	a := e.s.dbAddrs[n-1-e.rng.Intn(span)]
	return a + uint64(e.rng.Intn(512))
}

// loadEA draws a data address for a load in the given segment.
func (e *traceEmitter) loadEA(seg Segment) uint64 {
	// An in-progress bulk entity scan runs to completion line by line.
	if e.burstLeft > 0 {
		e.burstLeft--
		e.burstAddr += 128
		return e.remember(e.burstAddr)
	}
	// Temporal reuse dominates every segment's loads.
	if e.recentN > 8 && e.rng.Float64() < 0.80 {
		return e.reuse()
	}
	switch seg {
	case SegDB2:
		// The database walks its buffer pool: packed-row work areas,
		// replayed row touches, and per-connection state.
		switch r := e.rng.Float64(); {
		case r < 0.45:
			return e.rememberPriv(e.scratch(seg))
		case r < 0.70:
			return e.remember(e.dbReplay())
		default:
			return e.rememberPriv(e.s.layout.DBBuffer.Base + 1<<30 + e.affinity<<19 + uint64(e.rng.Intn(1<<16)))
		}
	case SegWebServer:
		// Web server process data: parse buffers plus per-worker state.
		if e.rng.Float64() < 0.5 {
			return e.rememberPriv(e.scratch(seg))
		}
		return e.rememberPriv(e.s.layout.WebServer.Base + 16<<20 + e.affinity<<19 + uint64(e.rng.Intn(1<<15)))
	case SegKernel:
		// Kernel data: per-CPU control structures plus a wider cold tail.
		switch r := e.rng.Float64(); {
		case r < 0.5:
			return e.rememberPriv(e.scratch(seg))
		case r < 0.97:
			return e.rememberPriv(e.s.layout.Kernel.Base + 64<<20 + e.affinity<<19 + 8<<10 + uint64(e.rng.Intn(1<<13)))
		default:
			return e.remember(e.s.layout.Kernel.Base + 68<<20 + uint64(e.rng.Intn(1<<19)))
		}
	}
	// Bulk entity scans: cold phases traverse collections of entity beans
	// sequentially. These are the paper's "bursts of L1 misses" — they
	// allocate prefetch streams and expose latency, which is why stream
	// allocations correlate with CPI while isolated misses do not.
	if e.phase > 0.8 && e.rng.Float64() < 0.030*(e.phase-0.8) && len(e.s.cacheObjs) > 64 {
		idx := e.rng.Intn(len(e.s.cacheObjs) - 32)
		e.burstAddr = e.s.heap.Addr(e.s.cacheObjs[idx])
		e.burstLeft = 24 + e.rng.Intn(48)
		return e.remember(e.burstAddr)
	}
	// Java code: objects. The cache and statics shares scale with the
	// request class's data coldness (manufacturing work orders traverse
	// far more entity state than a browse does), which is what gives the
	// windows their mix-driven memory-behaviour variance.
	db := e.dataBoost * e.phase
	if db <= 0 {
		db = 1
	}
	cacheShare := 0.06 * db
	staticShare := 0.12 * db
	switch r := e.rng.Float64(); {
	case r < 0.30: // this request's own objects (hot, sequential-ish)
		return e.rememberPriv(e.clusterAddr())
	case r < 0.30+cacheShare: // long-lived caches: the large data working set
		return e.remember(e.cacheAddr())
	case r < 0.88-staticShare: // stack frames
		return e.rememberPriv(e.stackBase + uint64(e.rng.Intn(8<<10)))
	case r < 0.88: // recently loaded DB rows copied into beans
		return e.remember(e.dbReplay())
	default: // statics, class metadata, interned strings
		return e.remember(e.staticAddr())
	}
}

// storeEA draws a data address for a store: heavily skewed toward freshly
// allocated objects (bump-style allocation touches new cache lines), which
// is why store misses are more frequent than load misses (Figure 8) while
// remaining harmless under the write-through no-allocate L1.
func (e *traceEmitter) storeEA(seg Segment) uint64 {
	// Read-modify-write: most stores update a field on a request-private
	// line a load just brought in (the paper's store misses are only 1 in
	// 5 because the write-through L1 usually already holds the line from a
	// read; they stay off other chips' lines, which is why there is almost
	// no cross-chip modified traffic).
	if e.lastLoad != 0 && e.rng.Float64() < 0.52 {
		return e.lastLoad&^63 + uint64(e.rng.Intn(64))
	}
	switch seg {
	case SegDB2:
		switch r := e.rng.Float64(); {
		case r < 0.03: // rows this transaction wrote
			return e.dbReplay()
		case r < 0.99: // packed-row work areas (load-hot)
			return e.scratch(seg)
		default: // genuinely shared control blocks: the little true sharing there is
			return e.s.layout.DBBuffer.Base + 1<<29 + uint64(e.rng.Intn(1<<14))
		}
	case SegWebServer:
		return e.scratch(seg)
	case SegKernel:
		return e.scratch(seg)
	}
	switch r := e.rng.Float64(); {
	case r < 0.13: // initializing stores sweeping fresh objects
		return e.freshStoreAddr()
	case r < 0.64: // field updates on recently touched private data
		if e.privN > 4 {
			return e.privReuse()
		}
		return e.clusterAddr()
	default: // stack spills: the top frames
		return e.stackBase + uint64(e.rng.Intn(2<<10))
	}
}

// clusterAddr returns an address inside one of the request's own objects,
// advancing mostly sequentially (field-by-field scans that the sequential
// prefetcher can follow).
func (e *traceEmitter) clusterAddr() uint64 {
	if len(e.cluster) == 0 {
		return e.staticAddr()
	}
	id := e.cluster[e.clusterIdx%len(e.cluster)]
	sz := uint64(e.s.heap.ObjSize(id))
	if e.clusterOff+32 > sz || e.rng.Float64() < 0.1 {
		e.clusterIdx++
		e.clusterOff = 0
		id = e.cluster[e.clusterIdx%len(e.cluster)]
	}
	a := e.s.heap.Addr(id) + e.clusterOff
	e.clusterOff += 32
	return a
}

// freshStoreAddr sweeps sequentially through the cluster's objects.
func (e *traceEmitter) freshStoreAddr() uint64 {
	if len(e.cluster) == 0 {
		return e.staticAddr()
	}
	id := e.cluster[e.storeIdx%len(e.cluster)]
	sz := uint64(e.s.heap.ObjSize(id))
	if e.storeOff+16 > sz {
		e.storeIdx++
		e.storeOff = 0
		id = e.cluster[e.storeIdx%len(e.cluster)]
	}
	a := e.s.heap.Addr(id) + e.storeOff
	e.storeOff += 16
	return a
}

// cacheAddr picks a long-lived cache object with temporal skew: a hot core
// is touched constantly, the long tail rarely — giving the L2 a working
// set it cannot fully hold (Figure 9's 75% L2 hit rate).
func (e *traceEmitter) cacheAddr() uint64 {
	n := len(e.s.cacheObjs)
	if n == 0 {
		return e.staticAddr()
	}
	var idx int
	if e.rng.Float64() < 0.97 {
		// Hot subset: ~2% of the cache (a couple of MB at full scale —
		// just beyond what the L2 retains alongside everything else).
		idx = e.rng.Intn(1 + n/48)
	} else {
		idx = e.rng.Intn(n)
	}
	id := e.s.cacheObjs[idx]
	return e.s.heap.Addr(id) + uint64(e.rng.Intn(4096))
}

// staticAddr touches class statics/metadata: a modest hot window inside
// the 4 KB-paged static region (one source of DERAT pressure).
func (e *traceEmitter) staticAddr() uint64 {
	switch r := e.rng.Float64(); {
	case r < 0.70: // the hottest metadata
		return e.staticHot + uint64(e.rng.Intn(1<<15))
	case r < 0.99: // warm tier: TLB-resident, too big for the ERAT
		return e.staticHot + uint64(e.rng.Intn(192<<10))
	}
	return e.s.layout.JavaStat.Base + uint64(e.rng.Intn(int(e.s.layout.JavaStat.Size)))
}

// lockEA picks a lock word. Most monitors are striped per container
// worker (thread-affine), so the same core re-acquires them; a small
// fraction are truly global (class locks, logger) — the only lock lines
// that ever ping-pong between chips.
func (e *traceEmitter) lockEA() uint64 {
	n := len(e.s.lockWords)
	if n == 0 {
		return e.staticAddr()
	}
	var idx int
	if e.rng.Float64() < 0.9 {
		idx = int(e.affinity)*7 + e.rng.Intn(7)
	} else {
		idx = 28 + e.rng.Intn(4) // global locks
	}
	return e.s.lockWords[idx%n]
}

// EmitIdle streams n instructions of an idle system: the OS wait loop and
// timer ticks — a tiny working set with predictable branches, giving the
// paper's ~0.7 idle CPI.
func (s *Server) EmitIdle(sink isa.Sink, n int) {
	b := s.emitter.batch
	b.Bind(sink)
	pcBase := s.layout.Kernel.Base + 96<<20
	for i := 0; i < n; i++ {
		ins := b.Slot()
		*ins = isa.Instr{Class: isa.ClassALU, PC: pcBase + uint64(i%64)*4, Kernel: true}
		switch i % 16 {
		case 3:
			ins.Class = isa.ClassLoad
			ins.EA = pcBase + 1<<16 + uint64(i%256)
			ins.Size = 8
		case 9:
			ins.Class = isa.ClassBranchCond
			ins.Taken = true
			ins.Target = pcBase
		}
		b.Commit()
	}
	b.Flush()
}

// EmitGC streams n instructions of garbage-collection work: tight loops
// (small code footprint in the JVM), pointer-chasing loads over the live
// heap during mark, sequential sweeps, almost no SYNC/LARX and fewer
// stores — reproducing the paper's GC-window observations (more branches,
// fewer mispredictions, orders-of-magnitude fewer TLB misses, lower store
// miss rate).
func (s *Server) EmitGC(sink isa.Sink, n int) {
	e := s.emitter
	// Every GC stretch replays the GC mix from the same seed.
	gcMix := e.mixGC
	gcMix.Reset(s.cfg.Seed + 104)
	// Parallel GC threads partition the heap: each core scans its own
	// stripe (no cross-chip sharing of mark state).
	var coreID uint64
	if ider, ok := sink.(interface{ CoreID() int }); ok {
		coreID = uint64(ider.CoreID())
	}
	b := e.batch
	b.Bind(sink)
	gcCode := s.layout.JVMNative.Base + 8<<20 // the collector's compact loop
	heapBase := s.layout.JavaHeap.Base
	heapSpan := s.heap.UsedBytes()
	if heapSpan < 1<<20 {
		heapSpan = 1 << 20
	}
	stripe := heapSpan / 4
	heapBase += coreID * stripe
	heapSpan = stripe
	lastScan := heapBase
	markCursor := uint64(0)
	for i := 0; i < n; i++ {
		pc := gcCode + uint64(i%512)*4
		cl := gcMix.Next()
		ins := b.Slot()
		*ins = isa.Instr{Class: cl, PC: pc}
		switch cl {
		case isa.ClassLoad:
			switch {
			case i%3 != 2:
				// Object scan: a sequential sweep the hardware prefetcher
				// follows (mark order respects allocation order — the
				// locality the paper suggests exploiting).
				markCursor = (markCursor + 96) % heapSpan
				ins.EA = heapBase + markCursor
			case len(s.cacheObjs) > 0:
				// Pointer chasing, but to neighbors allocated together, and
				// scanning each visited object's header+fields within one
				// line (typical Java objects are small — far smaller than
				// our 4 KB stand-ins, so a scan touches one line).
				if e.gcField >= 4 {
					jump := e.rng.Intn(257) - 128
					e.gcChase = (e.gcChase + len(s.cacheObjs) + jump) % len(s.cacheObjs)
					e.gcField = 0
				}
				id := s.cacheObjs[e.gcChase]
				ins.EA = s.heap.Addr(id) + uint64(e.gcField)*24
				e.gcField++
			default:
				ins.EA = heapBase + uint64(e.rng.Intn(int(heapSpan)))
			}
			lastScan = ins.EA
			ins.Size = 8
		case isa.ClassStore:
			// Mark bits live in the headers of just-scanned objects — the
			// line is already resident from the scan load, which is why
			// store misses DROP during GC (Figure 8).
			ins.EA = lastScan &^ 63
			ins.Size = 8
		case isa.ClassBranchCond:
			// Scan-loop branches: highly predictable.
			ins.Taken = e.rng.Float64() < 0.97
			ins.Target = pc - 32
		case isa.ClassBranchIndirect:
			// Scan dispatch on object type: stable per site.
			ins.PC = pc&^511 | 0x40
			ins.Target = gcCode + (ins.PC>>9&15)*256
		case isa.ClassLarx:
			ins.EA = s.layout.GCMeta.Base + uint64(e.rng.Intn(1024))
			e.pendingStcx = false
		}
		b.Commit()
	}
	b.Flush()
}
