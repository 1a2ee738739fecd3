package power4

import (
	"math"
	"math/rand"
	"testing"

	"jasworkload/internal/isa"
	"jasworkload/internal/mem"
)

func testRig(t *testing.T) (*Core, *mem.Layout) {
	t.Helper()
	layout, err := mem.NewLayout(mem.DefaultLayoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(DefaultTopologyConfig())
	if err != nil {
		t.Fatal(err)
	}
	core, err := NewCore(DefaultCoreConfig(0), h, layout.Space)
	if err != nil {
		t.Fatal(err)
	}
	return core, layout
}

func TestNewCoreValidation(t *testing.T) {
	if _, err := NewCore(DefaultCoreConfig(0), nil, nil); err == nil {
		t.Fatal("nil deps accepted")
	}
	layout, _ := mem.NewLayout(mem.DefaultLayoutConfig())
	h, _ := NewHierarchy(DefaultTopologyConfig())
	bad := DefaultCoreConfig(0)
	bad.L1D.Ways = 0
	if _, err := NewCore(bad, h, layout.Space); err == nil {
		t.Fatal("bad L1D accepted")
	}
	// The branch-free cycle spills are exact only while every accumulator
	// stays in [0, 2^63), so penalties that could push one outside are
	// rejected.
	for _, tc := range []struct {
		name string
		set  func(p *Penalties)
	}{
		{"negative", func(p *Penalties) { p.BaseCPI = -0.5 }},
		{"NaN", func(p *Penalties) { p.MemLatency = math.NaN() }},
		{"+Inf", func(p *Penalties) { p.TLBWalk = math.Inf(1) }},
		{"-Inf", func(p *Penalties) { p.DispatchMem = math.Inf(-1) }},
		{"huge", func(p *Penalties) { p.PrefCovered = 1e300 }},
		{"zero retry divisor", func(p *Penalties) { p.RetryDispatchDiv = 0 }},
		{"zero retry ratio", func(p *Penalties) { p.DERATMiss, p.RetryDispatchDiv = 0, 0 }},
	} {
		cfg := DefaultCoreConfig(0)
		tc.set(&cfg.Penalties)
		if _, err := NewCore(cfg, h, layout.Space); err == nil {
			t.Errorf("%s penalty accepted", tc.name)
		}
	}
	ok := DefaultCoreConfig(0)
	ok.Penalties.CondMispred = 0
	ok.Penalties.MemLatency = maxPenalty
	if _, err := NewCore(ok, h, layout.Space); err != nil {
		t.Errorf("zero and maximal penalties rejected: %v", err)
	}
}

// A tight loop over a tiny working set must approach the base CPI — this is
// the paper's "idle system has CPI of ~0.7".
func TestCoreIdealCPI(t *testing.T) {
	core, layout := testRig(t)
	pc := layout.JITCode.Base
	ea := layout.JavaHeap.Base
	ins := isa.Instr{}
	for i := 0; i < 200000; i++ {
		ins = isa.Instr{Class: isa.ClassALU, PC: pc + uint64(i%256)*4}
		if i%3 == 0 {
			ins = isa.Instr{Class: isa.ClassLoad, PC: ins.PC, EA: ea + uint64(i%1024)}
		}
		core.Consume(&ins)
	}
	c := core.Counters()
	if cpi := c.CPI(); cpi < 0.5 || cpi > 0.9 {
		t.Fatalf("ideal-stream CPI = %.3f, want ~0.6-0.8", cpi)
	}
	if core.UnmappedAccesses() != 0 {
		t.Fatalf("unmapped accesses: %d", core.UnmappedAccesses())
	}
}

// A stream with a huge data working set and unpredictable branches must
// push CPI well above the ideal level.
func TestCoreStressedCPIHigher(t *testing.T) {
	core, layout := testRig(t)
	rng := rand.New(rand.NewSource(11))
	heapSpan := layout.JavaHeap.Size
	codeSpan := uint64(16 << 20)
	for i := 0; i < 300000; i++ {
		pc := layout.JITCode.Base + (rng.Uint64()%codeSpan)&^3
		var ins isa.Instr
		switch rng.Intn(10) {
		case 0, 1, 2:
			ins = isa.Instr{Class: isa.ClassLoad, PC: pc, EA: layout.JavaHeap.Base + rng.Uint64()%heapSpan}
		case 3, 4:
			ins = isa.Instr{Class: isa.ClassStore, PC: pc, EA: layout.JavaHeap.Base + rng.Uint64()%heapSpan}
		case 5:
			ins = isa.Instr{Class: isa.ClassBranchCond, PC: pc, Taken: rng.Intn(2) == 0}
		default:
			ins = isa.Instr{Class: isa.ClassALU, PC: pc}
		}
		core.Consume(&ins)
	}
	c := core.Counters()
	if cpi := c.CPI(); cpi < 2 {
		t.Fatalf("stressed CPI = %.3f, want > 2", cpi)
	}
	if c.Get(EvL1DLoadMiss) == 0 || c.Get(EvBrCondMispred) == 0 {
		t.Fatal("stress stream produced no misses")
	}
	if sr := c.SpeculationRate(); sr < 1.5 {
		t.Fatalf("speculation rate = %.2f, want > 1.5 under mispredicts", sr)
	}
}

func TestCoreCounterConsistency(t *testing.T) {
	core, layout := testRig(t)
	rng := rand.New(rand.NewSource(13))
	const n = 100000
	var sent isa.CountingSink
	for i := 0; i < n; i++ {
		pc := layout.JITCode.Base + uint64(rng.Intn(1<<20))&^3
		var ins isa.Instr
		switch rng.Intn(12) {
		case 0, 1, 2:
			ins = isa.Instr{Class: isa.ClassLoad, PC: pc, EA: layout.JavaHeap.Base + rng.Uint64()%(1<<22)}
		case 3, 4:
			ins = isa.Instr{Class: isa.ClassStore, PC: pc, EA: layout.JavaHeap.Base + rng.Uint64()%(1<<22)}
		case 5:
			ins = isa.Instr{Class: isa.ClassBranchCond, PC: pc, Taken: true}
		case 6:
			ins = isa.Instr{Class: isa.ClassBranchIndirect, PC: pc, Target: pc + 64}
		default:
			ins = isa.Instr{Class: isa.ClassALU, PC: pc}
		}
		sent.Consume(&ins)
		core.Consume(&ins)
	}
	c := core.Counters()
	if c.Get(EvInstCompleted) != n {
		t.Fatalf("completed = %d, want %d", c.Get(EvInstCompleted), n)
	}
	if c.Get(EvLoads) != sent.Loads() {
		t.Fatalf("loads = %d, want %d", c.Get(EvLoads), sent.Loads())
	}
	if c.Get(EvStores) != sent.Stores() {
		t.Fatalf("stores = %d, want %d", c.Get(EvStores), sent.Stores())
	}
	if c.Get(EvBrCond) != sent.ByKind[isa.ClassBranchCond] {
		t.Fatal("branch count mismatch")
	}
	// Invariants.
	if c.Get(EvInstDispatched) < c.Get(EvInstCompleted) {
		t.Fatal("dispatched < completed")
	}
	if c.Get(EvCycWithCompletion) > c.Get(EvCycles)+1 {
		t.Fatal("completion cycles exceed cycles")
	}
	if c.Get(EvL1DLoadMiss) > c.Get(EvLoads) {
		t.Fatal("more load misses than loads")
	}
	if c.Get(EvBrCondMispred) > c.Get(EvBrCond) {
		t.Fatal("more mispredicts than branches")
	}
	// Every L1D load miss is sourced somewhere.
	sourced := c.Get(EvDataFromL2) + c.Get(EvDataFromL25Shr) + c.Get(EvDataFromL275Shr) +
		c.Get(EvDataFromL275Mod) + c.Get(EvDataFromL3) + c.Get(EvDataFromL35) + c.Get(EvDataFromMem)
	if sourced != c.Get(EvL1DLoadMiss) {
		t.Fatalf("sourced %d != load misses %d", sourced, c.Get(EvL1DLoadMiss))
	}
}

func TestCoreLarxStcx(t *testing.T) {
	core, layout := testRig(t)
	lock := layout.JavaHeap.Base + 4096
	pc := layout.JITCode.Base
	for i := 0; i < 100; i++ {
		core.Consume(&isa.Instr{Class: isa.ClassLarx, PC: pc, EA: lock})
		core.Consume(&isa.Instr{Class: isa.ClassStcx, PC: pc + 8, EA: lock})
	}
	c := core.Counters()
	if c.Get(EvLarx) != 100 || c.Get(EvStcx) != 100 {
		t.Fatalf("larx/stcx = %d/%d", c.Get(EvLarx), c.Get(EvStcx))
	}
	if c.Get(EvStcxFail) != 0 {
		t.Fatalf("uncontended STCX failed %d times", c.Get(EvStcxFail))
	}
}

func TestCoreStcxFailsUnderContention(t *testing.T) {
	layout, _ := mem.NewLayout(mem.DefaultLayoutConfig())
	h, _ := NewHierarchy(DefaultTopologyConfig())
	c0, _ := NewCore(DefaultCoreConfig(0), h, layout.Space)
	c2, _ := NewCore(DefaultCoreConfig(2), h, layout.Space) // other chip
	lock := layout.JavaHeap.Base + 8192
	pc := layout.JITCode.Base
	fails := 0
	for i := 0; i < 100; i++ {
		c0.Consume(&isa.Instr{Class: isa.ClassLarx, PC: pc, EA: lock})
		// The other chip steals the line between LARX and STCX.
		c2.Consume(&isa.Instr{Class: isa.ClassStore, PC: pc, EA: lock})
		snap := c0.Counters()
		before := snap.Get(EvStcxFail)
		c0.Consume(&isa.Instr{Class: isa.ClassStcx, PC: pc + 8, EA: lock})
		snap = c0.Counters()
		if snap.Get(EvStcxFail) > before {
			fails++
		}
	}
	if fails < 90 {
		t.Fatalf("contended STCX failed only %d/100", fails)
	}
}

func TestCoreStcxWithoutReservationFails(t *testing.T) {
	core, layout := testRig(t)
	core.Consume(&isa.Instr{Class: isa.ClassStcx, PC: layout.JITCode.Base, EA: layout.JavaHeap.Base})
	snap := core.Counters()
	if snap.Get(EvStcxFail) != 1 {
		t.Fatal("STCX without reservation succeeded")
	}
}

func TestCoreSyncAccounting(t *testing.T) {
	core, layout := testRig(t)
	pc := layout.JITCode.Base
	core.Consume(&isa.Instr{Class: isa.ClassSync, PC: pc})
	core.Consume(&isa.Instr{Class: isa.ClassSync, PC: pc, Kernel: true})
	c := core.Counters()
	if c.Get(EvSyncCount) != 2 {
		t.Fatalf("syncs = %d", c.Get(EvSyncCount))
	}
	if c.Get(EvKernelSyncSRQCycles) == 0 {
		t.Fatal("kernel SYNC cycles not tracked")
	}
	if c.Get(EvSyncSRQCycles) <= c.Get(EvKernelSyncSRQCycles) {
		t.Fatal("total SRQ cycles must include both user and kernel")
	}
	// Kernel SYNCs drain much longer than user SYNCs.
	user := c.Get(EvSyncSRQCycles) - c.Get(EvKernelSyncSRQCycles)
	if c.Get(EvKernelSyncSRQCycles) <= user {
		t.Fatal("kernel SYNC should cost more than user SYNC")
	}
}

func TestCoreKernelAttribution(t *testing.T) {
	core, layout := testRig(t)
	for i := 0; i < 1000; i++ {
		core.Consume(&isa.Instr{Class: isa.ClassALU, PC: layout.Kernel.Base + uint64(i%512)*4, Kernel: true})
	}
	c := core.Counters()
	if c.Get(EvKernelInst) != 1000 {
		t.Fatalf("kernel instructions = %d", c.Get(EvKernelInst))
	}
	if c.Get(EvKernelCycles) == 0 {
		t.Fatal("no kernel cycles")
	}
}

func TestCoreUnmappedCounted(t *testing.T) {
	core, _ := testRig(t)
	core.Consume(&isa.Instr{Class: isa.ClassLoad, PC: 0, EA: 0})
	if core.UnmappedAccesses() == 0 {
		t.Fatal("unmapped access not counted")
	}
}

// Write-through, no-allocate: store misses must not evict load data.
func TestCoreStoresDoNotPolluteL1(t *testing.T) {
	core, layout := testRig(t)
	pc := layout.JITCode.Base
	// Load a small hot set.
	for i := 0; i < 4000; i++ {
		core.Consume(&isa.Instr{Class: isa.ClassLoad, PC: pc, EA: layout.JavaHeap.Base + uint64(i%64)*128})
	}
	before := core.Counters().Get(EvL1DLoadMiss)
	// Stream stores over a huge span.
	for i := 0; i < 4000; i++ {
		core.Consume(&isa.Instr{Class: isa.ClassStore, PC: pc, EA: layout.JavaHeap.Base + uint64(i)*4096})
	}
	// Hot loads must still hit.
	for i := 0; i < 4000; i++ {
		core.Consume(&isa.Instr{Class: isa.ClassLoad, PC: pc, EA: layout.JavaHeap.Base + uint64(i%64)*128})
	}
	after := core.Counters().Get(EvL1DLoadMiss)
	if after != before {
		t.Fatalf("store stream evicted %d hot lines from L1D", after-before)
	}
}

func TestCoreSequentialLoadsTriggerPrefetch(t *testing.T) {
	core, layout := testRig(t)
	pc := layout.JITCode.Base
	for i := uint64(0); i < 2000; i++ {
		core.Consume(&isa.Instr{Class: isa.ClassLoad, PC: pc, EA: layout.JavaHeap.Base + i*128})
	}
	c := core.Counters()
	if c.Get(EvPrefStreamAlloc) == 0 {
		t.Fatal("no prefetch streams allocated on a sequential scan")
	}
	if c.Get(EvL1DPrefetch) == 0 || c.Get(EvL2Prefetch) == 0 {
		t.Fatal("no prefetches issued")
	}
	// With streams running, most of the scan must hit (prefetch hides it).
	missRate := float64(c.Get(EvL1DLoadMiss)) / float64(c.Get(EvLoads))
	if missRate > 0.6 {
		t.Fatalf("sequential scan miss rate = %.2f with prefetcher", missRate)
	}
}
