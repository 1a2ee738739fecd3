package power4

import (
	"fmt"
	"reflect"

	"jasworkload/internal/isa"
	"jasworkload/internal/mem"
)

// Penalties parameterizes the CPI model: cycles charged per
// microarchitectural event, plus dispatch-side (speculation) costs. The
// defaults are POWER4-flavoured latencies calibrated so the loaded-system
// CPI lands near the paper's ~3 while an ideal stream runs near 0.7
// (the paper's idle CPI).
type Penalties struct {
	BaseCPI float64 // issue-limited CPI with no stalls

	CondMispred   float64 // conditional direction misprediction flush
	TargetMispred float64 // indirect target misprediction flush

	DERATMiss float64 // ERAT reload from TLB (>= 14 cycles on POWER4)
	TLBWalk   float64 // hardware table walk after a TLB miss
	SLBWalk   float64 // segment-table walk after an SLB miss

	L2Latency     float64 // L1D miss satisfied by own L2
	RemoteL2      float64 // cache-to-cache transfer (L2.5/L2.75)
	L3Latency     float64 // MCM-local L3
	RemoteL3      float64 // L3.5
	MemLatency    float64 // DRAM
	LoadExposure  float64 // fraction of load latency exposed when not in a burst
	BurstExposure float64 // additional exposed fraction per extra miss in a burst
	PrefCovered   float64 // exposed fraction when a prefetch stream covers the miss
	StoreMissCost float64 // store-through cost per L1 store miss (mostly queued)

	IMissL2  float64 // front-end stall: I-fetch from L2
	IMissL3  float64
	IMissMem float64

	SyncDrainUser   float64 // SRQ-resident cycles per user SYNC
	SyncDrainKernel float64 // per kernel SYNC (deeper store queues in privileged paths)
	StcxCost        float64 // store-conditional completion cost

	// Dispatch-side model (instructions dispatched per completed).
	// POWER4 cracks many instructions into multiple internal operations
	// and re-dispatches groups; memory operations crack hardest. Because
	// the instruction mix is nearly constant window to window, the
	// speculation rate barely co-varies with CPI — the paper's finding.
	DispatchALU    float64 // internal ops dispatched per ALU instruction
	DispatchMem    float64 // per load/store (cracked + reissued)
	DispatchBranch float64 // per branch
	// WrongPathDispatch: wrong-path work counted per mispredict. Kept
	// small: the dispatch counter largely excludes flushed groups, which is
	// also why the paper sees speculation rate barely co-move with CPI.
	WrongPathDispatch float64
	RetryDispatchDiv  float64 // DERAT retry: one redispatch per this many cycles (7 on POWER4)
	// SpecAheadDispatch: when loads hit and the pipeline flows, the front
	// end runs further ahead of commit, dispatching more speculative work
	// per retired instruction. This opposes the mispredict/stall component,
	// which is why the paper measures almost no net correlation between
	// speculation rate and CPI.
	SpecAheadDispatch float64
}

// DefaultPenalties returns the calibrated POWER4 cost model.
func DefaultPenalties() Penalties {
	return Penalties{
		BaseCPI:           0.58,
		CondMispred:       13,
		TargetMispred:     15,
		DERATMiss:         16,
		TLBWalk:           110,
		SLBWalk:           90,
		L2Latency:         12,
		RemoteL2:          100,
		L3Latency:         70,
		RemoteL3:          150,
		MemLatency:        330,
		LoadExposure:      0.19,
		BurstExposure:     0.16,
		PrefCovered:       0.08,
		StoreMissCost:     1.4,
		IMissL2:           6,
		IMissL3:           36,
		IMissMem:          120,
		SyncDrainUser:     9,
		SyncDrainKernel:   26,
		StcxCost:          6,
		DispatchALU:       1.35,
		DispatchMem:       2.58,
		DispatchBranch:    1.85,
		WrongPathDispatch: 1.5,
		RetryDispatchDiv:  14,
		SpecAheadDispatch: 0.9,
	}
}

// maxPenalty bounds every Penalties field. The largest single charge is
// a latency times an exposure fraction, so with both at most 2^30 every
// cycle and dispatch accumulator stays below 2^63 and the branch-free
// spills in stages.go stay exact.
const maxPenalty = 1 << 30

// validate rejects penalties outside [0, maxPenalty], NaN included, and a
// DERAT retry divisor that makes the retry charge overflow.
func (p *Penalties) validate() error {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if x := v.Field(i).Float(); !(x >= 0 && x <= maxPenalty) {
			return fmt.Errorf("power4: penalty %s = %v, want a number in [0, %d]", v.Type().Field(i).Name, x, maxPenalty)
		}
	}
	if r := p.DERATMiss / p.RetryDispatchDiv; !(r <= maxPenalty) {
		return fmt.Errorf("power4: DERAT retry charge DERATMiss/RetryDispatchDiv = %v, want at most %d", r, maxPenalty)
	}
	return nil
}

// CoreConfig configures one simulated core.
type CoreConfig struct {
	ID        int
	L1I       CacheConfig
	L1D       CacheConfig
	MMU       MMUConfig
	Branch    BranchPredictorConfig
	Penalties Penalties
}

// DefaultCoreConfig returns a POWER4 core: 32 KB 2-way FIFO write-through
// L1D, 64 KB direct-mapped L1I, both with 128-byte lines.
func DefaultCoreConfig(id int) CoreConfig {
	return CoreConfig{
		ID: id,
		L1I: CacheConfig{
			Name: "L1I", SizeBytes: 64 << 10, Ways: 1, LineBytes: 128, Repl: ReplFIFO,
		},
		L1D: CacheConfig{
			Name: "L1D", SizeBytes: 32 << 10, Ways: 2, LineBytes: 128, Repl: ReplFIFO,
		},
		MMU:       DefaultMMUConfig(),
		Branch:    DefaultBranchConfig(),
		Penalties: DefaultPenalties(),
	}
}

// Core is one POWER4 core: private L1s, ERATs, predictors and prefetcher,
// attached to the shared Hierarchy. It implements isa.Sink.
type Core struct {
	cfg    CoreConfig
	l1i    *Cache
	l1d    *Cache
	mmu    *MMU
	cond   *CondPredictor
	target *TargetPredictor
	pref   *Prefetcher
	hier   *Hierarchy
	space  *mem.AddressSpace

	acctState // counters and fractional cycle/dispatch accumulators

	burst       int    // current consecutive L1D-load-miss burst length
	lastILine   uint64 // last fetched I-line (sequential prefetch model)
	returnSeq   uint64 // return counter for the link-stack model
	sinceMiss   int    // instructions since the last load miss
	reservation uint64 // LARX reservation line (one per core, as in PowerPC)
	hasResv     bool
	unmapped    uint64 // accesses outside every region (trace-generator bugs)

	// Fast-path state. After any mapped fetch the fetched line is resident
	// in the (core-private) L1I and its page in the IERAT, so a following
	// fetch to the same 128-byte line is a guaranteed L1I+IERAT hit and can
	// skip both lookups. Likewise any mapped data access leaves its page in
	// the DERAT, so a following access to the same 4 KB frame is a
	// guaranteed DERAT hit and its translation is the cached one shifted by
	// the in-frame offset (regions are page-aligned, so a frame never spans
	// regions, and 128-byte lines never span pages). Skipping the redundant
	// lookups also skips their LRU refresh, which is safe: the skipped
	// touch is always immediately preceded by a real touch of the same
	// entry with nothing in between in that structure, so the relative
	// recency order among distinct entries — the only thing replacement
	// ever consults — is unchanged.
	noFast  bool // disables every state-skipping shortcut (reference mode)
	fastI   bool
	lastIPC uint64
	fastD   bool
	lastDEA uint64
	lastDTr mem.Translation
	// Load fast path: fastL is set when the last load hit the L1D AND the
	// prefetcher matched no stream (so its only effect was a tick, which
	// feeds nothing but relative stream recency). A following load to the
	// same 128-byte line while the DERAT fast path also holds repeats that
	// exact outcome — guaranteed L1D hit (the L1D is core-private and
	// nothing inserted since), guaranteed no stream match (streams only
	// change when they match or a miss allocates, neither of which
	// happened) — so the whole D-side reduces to the dispatch/burst
	// bookkeeping. Any L1D insert or prefetcher effect clears fastL.
	fastL   bool
	lastLEA uint64

	// transMemo caches AddressSpace.Translate results per 4 KB frame.
	// Translate is a pure function and regions are fixed after layout
	// construction, so a cached frame translation never goes stale; the
	// memo only skips the region binary search, never any model state.
	// Frames never span regions (regions are page-aligned, pages >= 4 KB),
	// so the frame-base translation shifts linearly within the frame.
	transMemo [transMemoSize]transMemoEntry
}

// transMemoSize is the number of direct-mapped translation memo entries
// (must be a power of two). 512 frames cover 2 MB of effective address
// space at ~20 KiB of memo state.
const transMemoSize = 512

type transMemoEntry struct {
	frame uint64 // EA>>12 plus one, so the zero value matches nothing
	tr    mem.Translation
}

// translate resolves ea through the memo (fast paths enabled) or straight
// through the address space (reference behaviour). ok is false for
// unmapped addresses.
func (c *Core) translate(ea uint64) (mem.Translation, bool) {
	if c.noFast {
		tr, err := c.space.Translate(ea)
		return tr, err == nil
	}
	frame := ea >> 12
	e := &c.transMemo[frame&(transMemoSize-1)]
	if e.frame == frame+1 {
		tr := e.tr
		tr.RA += ea & 4095
		return tr, true
	}
	tr, err := c.space.Translate(ea)
	if err != nil {
		return tr, false
	}
	base := tr
	base.RA -= ea & 4095
	e.frame, e.tr = frame+1, base
	return tr, true
}

// batchAcc accumulates the unconditional per-instruction counters of one
// batch into local scalars so the hot loop touches the Counters array
// once per batch instead of several times per instruction. Integer
// counter increments commute, so flushing them batched is exactly
// equivalent to incrementing in place.
type batchAcc struct {
	inst, kinst   uint64
	loads, stores uint64
	brCond, brInd uint64
	ifetchL1      uint64
}

func (a *batchAcc) flush(ctr *Counters) {
	ctr.Add(EvInstCompleted, a.inst)
	ctr.Add(EvKernelInst, a.kinst)
	ctr.Add(EvLoads, a.loads)
	ctr.Add(EvStores, a.stores)
	ctr.Add(EvBrCond, a.brCond)
	ctr.Add(EvBrIndirect, a.brInd)
	ctr.Add(EvIFetchL1, a.ifetchL1)
	*a = batchAcc{}
}

// NewCore wires a core to the shared hierarchy and address space.
func NewCore(cfg CoreConfig, hier *Hierarchy, space *mem.AddressSpace) (*Core, error) {
	if hier == nil || space == nil {
		return nil, fmt.Errorf("power4: core needs hierarchy and address space")
	}
	if err := cfg.Penalties.validate(); err != nil {
		return nil, err
	}
	l1i, err := NewCache(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, err
	}
	mmu, err := NewMMU(cfg.MMU)
	if err != nil {
		return nil, err
	}
	cond, err := NewCondPredictor(cfg.Branch)
	if err != nil {
		return nil, err
	}
	tgt, err := NewTargetPredictor(cfg.Branch)
	if err != nil {
		return nil, err
	}
	return &Core{
		cfg: cfg, l1i: l1i, l1d: l1d, mmu: mmu,
		cond: cond, target: tgt, pref: &Prefetcher{},
		hier: hier, space: space,
	}, nil
}

// Counters returns a snapshot of the core's counters.
func (c *Core) Counters() Counters { return c.ctr.Snapshot() }

// CoreID returns the core's id within the system.
func (c *Core) CoreID() int { return c.cfg.ID }

// UnmappedAccesses reports trace addresses that fell outside every region.
func (c *Core) UnmappedAccesses() uint64 { return c.unmapped }

// SetFastPaths enables or disables the state-skipping shortcuts: the
// same-line and same-page fast paths and the translation memo. With
// enabled=false the core runs every instruction through the full model,
// the reference the equivalence tests compare against. Counter results
// are identical either way. It returns the previous setting.
func (c *Core) SetFastPaths(enabled bool) bool {
	prev := !c.noFast
	c.noFast = !enabled
	c.fastI = false
	c.fastD = false
	c.fastL = false
	return prev
}

// Consume processes one instruction through the full model.
func (c *Core) Consume(ins *isa.Instr) {
	var acc batchAcc
	c.consumeOne(ins, &acc)
	acc.flush(&c.ctr)
}

// ConsumeBatch implements isa.BatchSink: it processes the batch in a
// tight loop, accumulating the unconditional counters into local scalars
// flushed once per batch. The pure-ALU fast path is inlined here: an ALU
// instruction whose fetch stays in the current I-line touches no model
// state at all — it is counters plus BaseCPI accounting, nothing else.
func (c *Core) ConsumeBatch(b isa.Batch) {
	p := &c.cfg.Penalties
	var acc batchAcc
	for i := range b {
		ins := &b[i]
		if c.fastI && !c.noFast && ins.PC>>7 == c.lastIPC>>7 {
			switch ins.Class {
			case isa.ClassALU:
				acc.inst++
				if ins.Kernel {
					acc.kinst++
				}
				c.addDispatch(p.DispatchALU)
				c.chargeBase(p.BaseCPI, ins.Kernel)
				acc.ifetchL1++
				c.lastIPC = ins.PC
				continue
			case isa.ClassBranchCond:
				// Same-line conditional branch: the predictor still runs
				// (its state advances per branch), but the dispatch, base
				// charge and fetch reduce to the ALU fast-path shape, in
				// consumeOne's operation order.
				acc.inst++
				if ins.Kernel {
					acc.kinst++
				}
				c.addDispatch(p.DispatchBranch)
				c.chargeBase(p.BaseCPI, ins.Kernel)
				acc.ifetchL1++
				c.lastIPC = ins.PC
				acc.brCond++
				if !c.cond.Predict(ins.PC, ins.Taken) {
					c.ctr.Inc(EvBrCondMispred)
					c.chargeStall(p.CondMispred, ins.Kernel)
					c.addDispatch(p.WrongPathDispatch)
				}
				continue
			}
		}
		c.consumeOne(ins, &acc)
	}
	acc.flush(&c.ctr)
}

// consumeOne is the shared per-instruction model behind Consume and
// ConsumeBatch. Unconditional counters go through acc; rare/conditional
// events hit the counter array directly.
func (c *Core) consumeOne(ins *isa.Instr, acc *batchAcc) {
	p := &c.cfg.Penalties
	acc.inst++
	if ins.Kernel {
		acc.kinst++
	}
	switch {
	case ins.Class.IsMemory():
		c.addDispatch(p.DispatchMem)
	case ins.Class.IsBranch():
		c.addDispatch(p.DispatchBranch)
	default:
		c.addDispatch(p.DispatchALU)
	}
	c.chargeBase(p.BaseCPI, ins.Kernel)

	c.fetch(ins, acc)

	switch ins.Class {
	case isa.ClassLoad:
		acc.loads++
		c.load(ins)
	case isa.ClassStore:
		acc.stores++
		c.store(ins)
	case isa.ClassBranchCond:
		acc.brCond++
		if !c.cond.Predict(ins.PC, ins.Taken) {
			c.ctr.Inc(EvBrCondMispred)
			c.chargeStall(p.CondMispred, ins.Kernel)
			c.addDispatch(p.WrongPathDispatch)
		}
	case isa.ClassBranchIndirect:
		acc.brInd++
		mispred := false
		if ins.Return {
			// Returns are predicted by the link stack; it only fails on
			// deep call chains that overflow it (~3%).
			c.returnSeq++
			mispred = c.returnSeq%32 == 0
		} else {
			mispred = !c.target.Predict(ins.PC, ins.Target)
		}
		if mispred {
			c.ctr.Inc(EvBrTargetMispred)
			c.chargeStall(p.TargetMispred, ins.Kernel)
			c.addDispatch(p.WrongPathDispatch)
		}
	case isa.ClassLarx:
		acc.loads++
		c.ctr.Inc(EvLarx)
		c.load(ins)
		c.reservation = ins.EA >> 7
		c.hasResv = true
	case isa.ClassSync:
		c.ctr.Inc(EvSyncCount)
		drain := p.SyncDrainUser
		if ins.Kernel {
			drain = p.SyncDrainKernel
			c.ctr.Add(EvKernelSyncSRQCycles, uint64(drain))
		}
		c.ctr.Add(EvSyncSRQCycles, uint64(drain))
		c.chargeStall(drain, ins.Kernel)
	case isa.ClassStcx:
		// The STCX paired with a preceding LARX by the lock model.
		c.stcx(ins, acc)
	}
}

// stcx executes a store-conditional to ins.EA.
func (c *Core) stcx(ins *isa.Instr, acc *batchAcc) {
	p := &c.cfg.Penalties
	acc.stores++
	c.ctr.Inc(EvStcx)
	ok := c.hasResv && c.reservation == ins.EA>>7
	if ok {
		// Cross-chip interference is tracked at real-address granularity.
		if tr, mapped := c.translate(ins.EA); mapped {
			ok = !c.hier.ReservationLost(c.cfg.ID, tr.RA>>7)
		}
	}
	if !ok {
		c.ctr.Inc(EvStcxFail)
	}
	c.hasResv = false
	c.store(ins)
	c.chargeStall(p.StcxCost, ins.Kernel)
}

// fetch runs the I-side: IERAT/ITLB, then L1I and deeper levels. A fetch
// staying in the last fetched 128-byte line is a guaranteed IERAT and
// L1I hit (both structures are core-private and only fetch touches
// them), so it reduces to the EvIFetchL1 count.
func (c *Core) fetch(ins *isa.Instr, acc *batchAcc) {
	if c.fastI && !c.noFast && ins.PC>>7 == c.lastIPC>>7 {
		acc.ifetchL1++
		c.lastIPC = ins.PC
		return
	}
	p := &c.cfg.Penalties
	tr, ok := c.translate(ins.PC)
	if !ok {
		c.unmapped++
		c.fastI = false
		return
	}
	c.fastI = true
	c.lastIPC = ins.PC
	res := c.mmu.Inst(tr)
	if res.ERATMiss {
		c.ctr.Inc(EvIERATMiss)
		c.chargeStall(p.DERATMiss, ins.Kernel)
	}
	if res.TLBMiss {
		c.ctr.Inc(EvITLBMiss)
		c.chargeStall(p.TLBWalk, ins.Kernel)
	}
	if res.SLBMiss {
		c.ctr.Inc(EvSLBMiss)
		c.chargeStall(p.SLBWalk, ins.Kernel)
	}
	line := tr.RA >> 7
	if c.l1i.Lookup(tr.RA) {
		acc.ifetchL1++
		c.lastILine = line
		return
	}
	c.ctr.Inc(EvL1IMiss)
	// The front end prefetches sequential lines; a fall-through miss is
	// mostly hidden, a taken-branch miss to a new line is exposed.
	hide := 1.0
	if line == c.lastILine+1 {
		hide = 0.2
	}
	c.lastILine = line
	src := c.hier.FetchInst(c.cfg.ID, tr.RA)
	c.l1i.Insert(tr.RA)
	switch src {
	case SrcL2:
		c.ctr.Inc(EvIFetchL2)
		c.chargeStall(p.IMissL2*hide, ins.Kernel)
	case SrcL3:
		c.ctr.Inc(EvIFetchL3)
		c.chargeStall(p.IMissL3*hide, ins.Kernel)
	default:
		c.ctr.Inc(EvIFetchMem)
		c.chargeStall(p.IMissMem*hide, ins.Kernel)
	}
}

// dataTranslate is the D-side translation front end shared by load and
// store: effective-to-real translation, DERAT/TLB/SLB accounting, and
// the same-page fast path. An access to the same 4 KB frame as the last
// mapped data access is a guaranteed DERAT hit (the DERAT is
// core-private and only data accesses touch it), and because regions are
// page-aligned the translation is the cached one offset within the
// frame — so the pure-but-branchy region search and the DERAT probe are
// both skipped. ok is false for unmapped addresses (already counted).
func (c *Core) dataTranslate(ins *isa.Instr) (tr mem.Translation, ok bool) {
	if c.fastD && !c.noFast && ins.EA>>12 == c.lastDEA>>12 {
		tr = c.lastDTr
		tr.RA += ins.EA - c.lastDEA
		c.lastDEA = ins.EA
		c.lastDTr = tr
		return tr, true
	}
	p := &c.cfg.Penalties
	tr, ok = c.translate(ins.EA)
	if !ok {
		c.unmapped++
		c.fastD = false
		return tr, false
	}
	c.fastD = true
	c.lastDEA = ins.EA
	c.lastDTr = tr
	res := c.mmu.Data(tr)
	if res.ERATMiss {
		c.ctr.Inc(EvDERATMiss)
		c.chargeStall(p.DERATMiss, ins.Kernel)
		// Retried dispatches every RetryDispatchDiv cycles until translated.
		c.addDispatch(p.DERATMiss / p.RetryDispatchDiv)
	}
	if res.TLBMiss {
		c.ctr.Inc(EvDTLBMiss)
		c.chargeStall(p.TLBWalk, ins.Kernel)
	}
	if res.SLBMiss {
		c.ctr.Inc(EvSLBMiss)
		c.chargeStall(p.SLBWalk, ins.Kernel)
	}
	return tr, true
}

// load runs the D-side read path.
func (c *Core) load(ins *isa.Instr) {
	p := &c.cfg.Penalties
	if c.fastL && !c.noFast && ins.EA>>7 == c.lastLEA>>7 && c.fastD && ins.EA>>12 == c.lastDEA>>12 {
		// Repeat of the last load's line while the cached translation still
		// covers its page: guaranteed L1D hit with a no-op prefetcher probe
		// (see the fastL field comment), so only the flow bookkeeping runs.
		c.addDispatch(p.SpecAheadDispatch)
		c.sinceMiss++
		if c.sinceMiss > 12 {
			c.burst = 0
		}
		return
	}
	tr, ok := c.dataTranslate(ins)
	if !ok {
		return
	}
	line := tr.RA >> 7
	if c.l1d.Lookup(tr.RA) {
		c.addDispatch(p.SpecAheadDispatch)
		res := c.pref.OnAccess(line, false)
		if res.Covered {
			// A stream matched this hit and issued prefetches; the fills
			// below insert into the L1D, so the fast path must not arm.
			c.drainPrefetch(tr.RA)
			c.fastL = false
		} else {
			// No stream matched, so nothing accrued and the drain would be
			// a no-op (pending work is always drained right after the
			// OnAccess that produced it).
			c.fastL = true
			c.lastLEA = ins.EA
		}
		c.sinceMiss++
		if c.sinceMiss > 12 {
			c.burst = 0
		}
		return
	}
	c.fastL = false
	c.ctr.Inc(EvL1DLoadMiss)
	if c.sinceMiss <= 12 {
		c.burst++
	} else {
		c.burst = 1
	}
	c.sinceMiss = 0
	pres := c.pref.OnAccess(line, true)
	if pres.Allocated {
		c.ctr.Inc(EvPrefStreamAlloc)
	}
	c.drainPrefetch(tr.RA)
	src := c.hier.Load(c.cfg.ID, tr.RA)
	c.l1d.Insert(tr.RA)
	var lat float64
	switch src {
	case SrcL2:
		c.ctr.Inc(EvDataFromL2)
		lat = p.L2Latency
	case SrcL25Shr:
		c.ctr.Inc(EvDataFromL25Shr)
		lat = p.RemoteL2
	case SrcL25Mod:
		c.ctr.Inc(EvDataFromL25Shr) // same bucket; our topology never produces it
		lat = p.RemoteL2
	case SrcL275Shr:
		c.ctr.Inc(EvDataFromL275Shr)
		lat = p.RemoteL2
	case SrcL275Mod:
		c.ctr.Inc(EvDataFromL275Mod)
		lat = p.RemoteL2
	case SrcL3:
		c.ctr.Inc(EvDataFromL3)
		lat = p.L3Latency
	case SrcL35:
		c.ctr.Inc(EvDataFromL35)
		lat = p.RemoteL3
	default:
		c.ctr.Inc(EvDataFromMem)
		lat = p.MemLatency
	}
	// Exposure: a lone L1 miss is mostly hidden by out-of-order execution
	// (POWER4 keeps ~100 instructions in flight); bursts expose more of the
	// latency; a covering prefetch stream hides nearly all of it.
	exposure := p.LoadExposure + p.BurstExposure*float64(c.burst-1)
	if exposure > 1 {
		exposure = 1
	}
	if pres.Covered {
		exposure = p.PrefCovered
	}
	c.chargeStall(lat*exposure, ins.Kernel)
}

// store runs the D-side write path: write-through, no-allocate L1.
func (c *Core) store(ins *isa.Instr) {
	p := &c.cfg.Penalties
	tr, ok := c.dataTranslate(ins)
	if !ok {
		return
	}
	if !c.l1d.Probe(tr.RA) {
		// L1 store miss: the line is NOT allocated in L1 (stores write to
		// the L2 through the store queue), so useful L1 data is preserved.
		c.ctr.Inc(EvL1DStoreMiss)
		c.chargeStall(p.StoreMissCost, ins.Kernel)
	}
	c.hier.Store(c.cfg.ID, tr.RA)
}

// drainPrefetch converts pending prefetcher work into counters and cache
// fills ahead of the current access.
func (c *Core) drainPrefetch(ra uint64) {
	l1, l2, _ := c.pref.Take()
	if l1 == 0 && l2 == 0 {
		return
	}
	c.ctr.Add(EvL1DPrefetch, l1)
	c.ctr.Add(EvL2Prefetch, l2)
	// Install the next sequential lines.
	for i := uint64(1); i <= l1; i++ {
		c.l1d.Insert(ra + i*128)
	}
	for i := uint64(1); i <= l2; i++ {
		c.hier.PrefetchFill(c.cfg.ID, ra+i*128, i > 2)
	}
}
