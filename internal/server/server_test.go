package server

import (
	"math"
	"testing"

	"jasworkload/internal/db"
	"jasworkload/internal/isa"
	"jasworkload/internal/jvm"
	"jasworkload/internal/mem"
)

// rig builds a small but complete SUT at the given IR.
func rig(t testing.TB, ir int) *Server {
	t.Helper()
	lcfg := mem.DefaultLayoutConfig()
	lcfg.HeapBytes = 256 << 20
	layout, err := mem.NewLayout(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := jvm.DefaultProfileConfig()
	pcfg.NumMethods = 850
	pcfg.WarmSet = 60
	methods, err := jvm.GenerateMethods(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	jit, err := jvm.NewJIT(jvm.DefaultJITConfig(), methods, layout.JITCode)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := jvm.NewHeap(jvm.DefaultGCConfig(), layout.JavaHeap)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := db.NewBufferPool(layout.DBBuffer, 4096, db.RAMDisk{})
	if err != nil {
		t.Fatal(err)
	}
	dbase, err := db.NewDatabase(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(dbase, db.DefaultScaleConfig(ir)); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ir)
	cfg.BaselineCacheBytes = 64 << 20
	s, err := New(cfg, layout, jit, heap, dbase)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(10), nil, nil, nil, nil); err == nil {
		t.Fatal("nil substrates accepted")
	}
}

func TestRequestTypeMeta(t *testing.T) {
	app := Jas2004App()
	for rt := RequestType(0); rt < numRequestTypes; rt++ {
		if rt.String() == "" {
			t.Fatal("unnamed request type")
		}
		if rt.String() != app.Classes[rt].Name {
			t.Fatalf("legacy name %q != pack class name %q", rt, app.Classes[rt].Name)
		}
		sc := app.Classes[rt]
		if sc.BaseInstr <= 0 || sc.AllocBytes <= 0 || sc.MethodCalls <= 0 {
			t.Fatalf("%v script empty", rt)
		}
		if rt.IsWeb() != sc.Web {
			t.Fatalf("%v: legacy IsWeb disagrees with pack class", rt)
		}
	}
	if !ReqPurchase.IsWeb() || !ReqBrowse.IsWeb() || ReqCreateVehicle.IsWeb() {
		t.Fatal("web/RMI classification wrong")
	}
	if RequestType(99).String() != "request(99)" {
		t.Fatal("out-of-range name wrong")
	}
}

func TestDefaultAppJOPSRatio(t *testing.T) {
	// The benchmark executes ~1.6 JOPS per IR.
	if got := Jas2004App().TotalPerIR(); math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("JOPS/IR = %v, want 1.6", got)
	}
}

func TestExecuteAllTypes(t *testing.T) {
	s := rig(t, 5)
	for rt := RequestType(0); rt < numRequestTypes; rt++ {
		res, err := s.Execute(1000, rt, nil, 0)
		if err != nil {
			t.Fatalf("%v: %v", rt, err)
		}
		if res.Instructions == 0 || res.AllocBytes == 0 || res.DBOps == 0 {
			t.Fatalf("%v: empty result %+v", rt, res)
		}
		var segSum uint64
		for _, v := range res.Segments {
			segSum += v
		}
		if segSum > res.Instructions || float64(segSum) < 0.95*float64(res.Instructions) {
			t.Fatalf("%v: segments %d vs total %d", rt, segSum, res.Instructions)
		}
		if res.LockAcquires <= 0 {
			t.Fatalf("%v: no lock acquisitions", rt)
		}
	}
	ex := s.Executed()
	for rt, n := range ex {
		if n != 1 {
			t.Fatalf("executed[%d] = %d", rt, n)
		}
	}
}

func TestExecuteSegmentShares(t *testing.T) {
	s := rig(t, 5)
	s.JIT().WarmUp(0.95) // the paper measures a fully warmed system
	var total, web, db2, kern, wasj, wasn uint64
	for i := 0; i < 200; i++ {
		for rt := RequestType(0); rt < numRequestTypes; rt++ {
			if s.Heap().NeedsGC() {
				s.Heap().Collect(float64(i * 1000))
			}
			res, err := s.Execute(float64(i*1000), rt, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Instructions
			web += res.Segments[SegWebServer]
			db2 += res.Segments[SegDB2]
			kern += res.Segments[SegKernel]
			wasj += res.Segments[SegWASJit]
			wasn += res.Segments[SegWASNative]
		}
	}
	was := wasj + wasn
	// The paper: WAS consumes about twice the web server + DB2 combined.
	ratio := float64(was) / float64(web+db2)
	if ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("WAS/(web+DB2) = %.2f, want ~2", ratio)
	}
	// Roughly half the WAS process time is JITed code once warm.
	jshare := float64(wasj) / float64(was)
	if jshare < 0.35 || jshare > 0.60 {
		t.Fatalf("JITed share of WAS = %.2f, want ~0.5", jshare)
	}
	// Kernel time is a sizable minority (paper: 20% incl. I/O paths).
	kshare := float64(kern) / float64(total)
	if kshare < 0.10 || kshare > 0.25 {
		t.Fatalf("kernel share = %.2f", kshare)
	}
}

func TestExecuteWarmsJIT(t *testing.T) {
	s := rig(t, 5)
	if s.JIT().CompiledShare() != 0 {
		t.Fatal("JIT warm before any request")
	}
	for i := 0; i < 400; i++ {
		if _, err := s.Execute(float64(i*100), ReqBrowse, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.JIT().CompiledShare() < 0.3 {
		t.Fatalf("compiled share = %.2f after 400 requests", s.JIT().CompiledShare())
	}
}

func TestExecuteTraceAddressesMapped(t *testing.T) {
	s := rig(t, 5)
	var unmapped, total int
	sink := isa.SinkFunc(func(ins *isa.Instr) {
		total++
		if _, err := s.Layout().Space.Translate(ins.PC); err != nil {
			unmapped++
		}
		if ins.Class.IsMemory() {
			if _, err := s.Layout().Space.Translate(ins.EA); err != nil {
				unmapped++
			}
		}
	})
	for rt := RequestType(0); rt < numRequestTypes; rt++ {
		if _, err := s.Execute(0, rt, sink, 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if total == 0 {
		t.Fatal("no instructions emitted")
	}
	if unmapped != 0 {
		t.Fatalf("%d/%d unmapped trace addresses", unmapped, total)
	}
}

func TestExecuteTraceVolumeScales(t *testing.T) {
	s := rig(t, 5)
	count := func(frac float64) int {
		var n int
		sink := isa.SinkFunc(func(*isa.Instr) { n++ })
		if _, err := s.Execute(0, ReqPurchase, sink, frac); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n10 := count(0.1)
	n50 := count(0.5)
	if n10 == 0 || n50 == 0 {
		t.Fatal("no trace emitted")
	}
	r := float64(n50) / float64(n10)
	if r < 3.5 || r > 7 {
		t.Fatalf("trace volume ratio = %.2f, want ~5", r)
	}
}

func TestExecuteTraceMix(t *testing.T) {
	s := rig(t, 5)
	var cs isa.CountingSink
	for i := 0; i < 30; i++ {
		for rt := RequestType(0); rt < numRequestTypes; rt++ {
			if _, err := s.Execute(float64(i), rt, &cs, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	loadRate := float64(cs.Loads()) / float64(cs.Total)
	storeRate := float64(cs.Stores()) / float64(cs.Total)
	// Paper: 1 load per 3.2 instructions, 1 store per 4.5.
	if loadRate < 0.26 || loadRate > 0.37 {
		t.Fatalf("load rate = %.3f, want ~0.31", loadRate)
	}
	if storeRate < 0.18 || storeRate > 0.27 {
		t.Fatalf("store rate = %.3f, want ~0.22", storeRate)
	}
	// LARX every ~600 instructions, STCX paired 1:1.
	larx := cs.ByKind[isa.ClassLarx]
	stcx := cs.ByKind[isa.ClassStcx]
	if larx == 0 || stcx != larx {
		t.Fatalf("larx/stcx = %d/%d, want equal and nonzero", larx, stcx)
	}
	per := float64(cs.Total) / float64(larx)
	if per < 400 || per > 900 {
		t.Fatalf("instructions per LARX = %.0f, want ~600", per)
	}
	// Kernel instructions present (the OS segment).
	if cs.Kernel == 0 {
		t.Fatal("no kernel instructions in trace")
	}
}

func TestSessionLifecycle(t *testing.T) {
	s := rig(t, 5)
	for i := 0; i < 300; i++ {
		if s.Heap().NeedsGC() {
			s.Heap().Collect(float64(i) * 10)
		}
		if _, err := s.Execute(float64(i)*10, ReqManage, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.ActiveSessions() == 0 {
		t.Fatal("no sessions created")
	}
	before := s.ActiveSessions()
	// Jump far past the TTL; expiry is lazy, so run more requests.
	far := s.cfg.SessionTTLMS * 10
	for i := 0; i < 300; i++ {
		if s.Heap().NeedsGC() {
			s.Heap().Collect(far + float64(i))
		}
		if _, err := s.Execute(far+float64(i), ReqManage, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.ActiveSessions() >= before+300 {
		t.Fatal("sessions never expire")
	}
}

func TestHeapChurnAndCollect(t *testing.T) {
	s := rig(t, 5)
	heap := s.Heap()
	gcs := 0
	for i := 0; i < 800; i++ {
		_, err := s.Execute(float64(i)*15, ReqPurchase, nil, 0)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if heap.NeedsGC() {
			heap.Collect(float64(i) * 15)
			gcs++
		}
	}
	if gcs == 0 {
		t.Fatal("allocation churn never triggered GC in a 256MB heap")
	}
	// Live set is dominated by the baseline cache (64 MB here).
	if heap.LiveBytes() < 60<<20 || heap.LiveBytes() > 120<<20 {
		t.Fatalf("live = %d MB", heap.LiveBytes()>>20)
	}
}

func TestEmitGCCharacteristics(t *testing.T) {
	s := rig(t, 5)
	var gc, mut isa.CountingSink
	s.EmitGC(&gc, 50000)
	for rt := RequestType(0); rt < numRequestTypes; rt++ {
		if _, err := s.Execute(0, rt, &mut, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	if gc.Total == 0 || mut.Total == 0 {
		t.Fatal("no instructions")
	}
	// GC has more branches and far fewer SYNCs than mutator code.
	gcBr := float64(gc.Branches()) / float64(gc.Total)
	mutBr := float64(mut.Branches()) / float64(mut.Total)
	if gcBr <= mutBr {
		t.Fatalf("GC branch rate %.3f <= mutator %.3f", gcBr, mutBr)
	}
	gcSync := float64(gc.ByKind[isa.ClassSync]) / float64(gc.Total)
	mutSync := float64(mut.ByKind[isa.ClassSync]) / float64(mut.Total)
	if gcSync >= mutSync/4 {
		t.Fatalf("GC sync rate %.5f not far below mutator %.5f", gcSync, mutSync)
	}
	// GC stores are rarer.
	gcSt := float64(gc.Stores()) / float64(gc.Total)
	mutSt := float64(mut.Stores()) / float64(mut.Total)
	if gcSt >= mutSt {
		t.Fatal("GC stores not rarer than mutator stores")
	}
}

func TestEmitIdleTinyFootprint(t *testing.T) {
	s := rig(t, 5)
	pcs := map[uint64]bool{}
	sink := isa.SinkFunc(func(ins *isa.Instr) { pcs[ins.PC] = true })
	s.EmitIdle(sink, 10000)
	if len(pcs) == 0 || len(pcs) > 128 {
		t.Fatalf("idle loop touches %d PCs, want a tiny loop", len(pcs))
	}
}

func TestSegmentNames(t *testing.T) {
	for seg := Segment(0); seg < numSegments; seg++ {
		if seg.String() == "" {
			t.Fatal("unnamed segment")
		}
	}
	if Segment(77).String() != "segment(77)" {
		t.Fatal("out-of-range segment name")
	}
}

func TestAppsValidate(t *testing.T) {
	for _, app := range []*App{Jas2004App(), Trade6App()} {
		if err := app.Validate(); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
	}
	var nilApp *App
	if err := nilApp.Validate(); err == nil {
		t.Fatal("nil app validated")
	}
	broken := Jas2004App()
	broken.Classes[0].Name = ""
	if err := broken.Validate(); err == nil {
		t.Fatal("unnamed class validated")
	}
	broken2 := Jas2004App()
	broken2.LoadDB = nil
	if err := broken2.Validate(); err == nil {
		t.Fatal("app without loader validated")
	}
}

// tradeRig builds a SUT running the Trade6 application.
func tradeRig(t *testing.T, ir int) *Server {
	t.Helper()
	lcfg := mem.DefaultLayoutConfig()
	lcfg.HeapBytes = 256 << 20
	layout, err := mem.NewLayout(lcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := jvm.DefaultProfileConfig()
	pcfg.NumMethods = 850
	pcfg.WarmSet = 60
	methods, err := jvm.GenerateMethods(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	jit, err := jvm.NewJIT(jvm.DefaultJITConfig(), methods, layout.JITCode)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := jvm.NewHeap(jvm.DefaultGCConfig(), layout.JavaHeap)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := db.NewBufferPool(layout.DBBuffer, 4096, db.RAMDisk{})
	if err != nil {
		t.Fatal(err)
	}
	dbase, err := db.NewDatabase(pool)
	if err != nil {
		t.Fatal(err)
	}
	app := Trade6App()
	if err := app.LoadDB(dbase, ir, 1); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ir)
	cfg.App = app
	cfg.BaselineCacheBytes = 64 << 20
	s, err := New(cfg, layout, jit, heap, dbase)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrade6Execute(t *testing.T) {
	s := tradeRig(t, 5)
	for rt := RequestType(0); rt < numRequestTypes; rt++ {
		res, err := s.Execute(1000, rt, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.App().Classes[rt].Name, err)
		}
		if res.Instructions == 0 || res.DBOps == 0 {
			t.Fatalf("%s: empty result", s.App().Classes[rt].Name)
		}
	}
	// Quotes are the cheapest class (read-only market data).
	quote, _ := s.Execute(2000, 2, nil, 0)
	buy, _ := s.Execute(2000, 0, nil, 0)
	if quote.Instructions >= buy.Instructions*2 {
		t.Fatal("quote not cheaper than buy")
	}
}

func TestCPUFactorScalesInstructions(t *testing.T) {
	base := rig(t, 5)
	resBase, err := base.Execute(0, ReqBrowse, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same rig but with a Sovereign-like CPU factor.
	heavy := rig(t, 5)
	heavy.cpuFactor = 1.5
	resHeavy, err := heavy.Execute(0, ReqBrowse, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(resHeavy.Instructions) / float64(resBase.Instructions)
	if ratio < 1.2 || ratio > 1.9 {
		t.Fatalf("cpu factor ratio = %.2f, want ~1.5", ratio)
	}
}
