package sim

import (
	"context"
	"errors"
	"fmt"

	"jasworkload/internal/driver"
	"jasworkload/internal/hpm"
	"jasworkload/internal/isa"
	"jasworkload/internal/jvm"
	"jasworkload/internal/loadgen"
	"jasworkload/internal/power4"
	"jasworkload/internal/server"
)

// EngineConfig controls the whole-system run.
type EngineConfig struct {
	DurationMS float64 // total simulated run length
	RampMS     float64 // ramp-up excluded from the audit (paper: 5 min)
	WindowMS   float64 // sampling window (default 1000 ms)

	ClockHz    float64 // processor frequency (POWER4: 1.45 GHz)
	InstrScale float64 // paper-scale instructions per simulated instruction
	NominalCPI float64 // CPI assumed until/unless measured

	// DetailFrac is the fraction of each request's instructions streamed
	// through the processor model (0 = request-level only). This is the
	// sampled-fidelity knob described in DESIGN.md.
	DetailFrac float64

	WarmJIT bool // pre-compile the hot profile before t=0 (the paper's long warmup)
	Seed    int64

	// Arrival, when non-empty, is a canonical loadgen spec (JSON): the
	// driver consumes a spec-built loadgen.Source instead of its legacy
	// steady Poisson loop. Empty means the verbatim legacy path.
	Arrival string
}

// DefaultEngineConfig returns the standard run parameters.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		DurationMS: 10 * 60 * 1000,
		RampMS:     5 * 60 * 1000,
		WindowMS:   1000,
		ClockHz:    1.45e9,
		InstrScale: 256,
		NominalCPI: 3.0,
		DetailFrac: 0,
		WarmJIT:    true,
		Seed:       1,
	}
}

// WindowStats is the per-window system snapshot (the vmstat view).
type WindowStats struct {
	Index       int
	StartMS     float64
	Completions []int   // per request class of the deployed app
	UtilBusy    float64 // CPU busy fraction (user+sys)
	UtilUser    float64
	UtilSys     float64
	UtilIOWait  float64
	UtilIdle    float64
	GCs         int
	GCPauseMS   float64
	CPI         float64 // measured CPI this window (detail mode only)
}

// WindowFunc observes one completed window. The engine invokes it
// synchronously at the end of every Step, after the window has been
// appended to Windows() and before the HPM monitors tick. Observers see
// exactly the values that Windows() records — streaming consumers do not
// fork the engine loop, they ride it.
type WindowFunc func(WindowStats)

// Engine runs the SUT against the driver.
type Engine struct {
	cfg EngineConfig
	sut *SUT
	drv *driver.Driver

	nowMS      float64
	coreFreeAt []float64
	tracker    *driver.Tracker
	monitors   []*hpm.Monitor
	windowFn   WindowFunc
	windows    []WindowStats
	segTotals  [server.NumSegments]uint64
	instrTotal uint64
	gcInstrSim uint64
	cpiEst     float64

	finished    bool               // set once Run completes; guards against re-running
	shard       *power4.ShardGroup // detail-mode stream consumer while RunContext runs
	ctx         context.Context    // cancellation for the window loop (nil = never)
	lastCtr     counterSnapshot
	queue       []queuedReq // arrivals not yet served (capacity carry-over)
	diskFreeAt  float64     // disk array availability (I/O queueing)
	pendingBusy float64     // service ms not yet attributed to a window
	pendingSys  float64
	pendingIO   float64
	pendingGCms float64
	pendingGCs  int
}

type counterSnapshot struct {
	cycles, inst uint64
}

// queuedReq is an arrival waiting for a core.
type queuedReq struct {
	at float64
	rt server.RequestType
}

// NewEngine builds an engine over a SUT.
func NewEngine(cfg EngineConfig, sut *SUT) (*Engine, error) {
	if sut == nil {
		return nil, errors.New("sim: nil SUT")
	}
	if cfg.WindowMS <= 0 || cfg.DurationMS <= 0 || cfg.ClockHz <= 0 ||
		cfg.InstrScale <= 0 || cfg.NominalCPI <= 0 {
		return nil, fmt.Errorf("sim: bad engine config %+v", cfg)
	}
	if cfg.RampMS >= cfg.DurationMS {
		return nil, fmt.Errorf("sim: ramp %v >= duration %v", cfg.RampMS, cfg.DurationMS)
	}
	app := sut.Server.App()
	dcfg := driver.Config{IR: sut.Config.IR, Rates: app.Rates(), Seed: cfg.Seed}
	if cfg.Arrival != "" {
		spec, err := loadgen.Parse([]byte(cfg.Arrival))
		if err != nil {
			return nil, err
		}
		src, err := spec.NewSource(loadgen.SourceConfig{
			IR:         sut.Config.IR,
			Rates:      app.Rates(),
			ClassNames: app.ClassNames(),
			Seed:       cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		if err := src.CheckRun(cfg.WindowMS, int(cfg.DurationMS/cfg.WindowMS)); err != nil {
			return nil, err
		}
		dcfg.Source = src
	}
	drv, err := driver.New(dcfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		sut:        sut,
		drv:        drv,
		coreFreeAt: make([]float64, len(sut.Cores)),
		tracker:    driver.NewTracker(cfg.RampMS, app.Deadlines()),
		cpiEst:     cfg.NominalCPI,
	}
	if cfg.WarmJIT {
		// The paper measures a long-warmed system: "most 'important'
		// methods had a chance to be profiled ... and JIT-compiled at high
		// optimization levels". Model that as an AOT/shared-class-cache
		// start plus profile-driven warmup.
		sut.JIT.Precompile(0.98)
		sut.JIT.WarmUp(0.97)
	}
	return e, nil
}

// Source returns the HPM counter source for this SUT.
func (e *Engine) Source() hpm.CounterSource { return counterSource{e.sut} }

// AttachMonitor registers an HPM monitor ticked once per window.
func (e *Engine) AttachMonitor(m *hpm.Monitor) { e.monitors = append(e.monitors, m) }

// SetWindowFunc registers fn as the per-window observer (nil detaches).
// Observation is pure: attaching a WindowFunc never changes the simulated
// outcome — Windows() is bit-identical with or without one
// (TestWindowFuncObservesWithoutPerturbing enforces this).
func (e *Engine) SetWindowFunc(fn WindowFunc) { e.windowFn = fn }

// Tracker returns the response-time tracker.
func (e *Engine) Tracker() *driver.Tracker { return e.tracker }

// Windows returns the per-window statistics collected so far.
func (e *Engine) Windows() []WindowStats { return e.windows }

// SegmentTotals returns cumulative instruction counts by software
// component (request-level accounting, independent of DetailFrac).
func (e *Engine) SegmentTotals() [server.NumSegments]uint64 { return e.segTotals }

// InstrTotal returns cumulative request instructions (simulated units).
func (e *Engine) InstrTotal() uint64 { return e.instrTotal }

// GCInstrSim returns cumulative GC instructions (simulated units).
func (e *Engine) GCInstrSim() uint64 { return e.gcInstrSim }

// simRatePerMS is the per-core simulated-instruction retirement rate.
func (e *Engine) simRatePerMS() float64 {
	return e.cfg.ClockHz / (e.cpiEst * e.cfg.InstrScale * 1000)
}

// ErrFinished is returned when Run is called on an engine that already
// completed its configured duration. Completed engines are shared read-only
// views (the run-artifact layer hands one engine to many figure
// constructors), so re-running would corrupt every consumer.
var ErrFinished = errors.New("sim: engine already ran to completion")

// Finished reports whether the engine has completed its configured
// duration. Artifact consumers use this as the it-is-safe-to-read guard.
func (e *Engine) Finished() bool { return e.finished }

// Run executes the configured duration and returns the windows. A second
// call returns ErrFinished.
func (e *Engine) Run() ([]WindowStats, error) {
	return e.RunContext(context.Background())
}

// RunContext executes the configured duration, aborting between requests
// when ctx is cancelled: the engine checks ctx inside every window's serve
// loop, so a long window stops mid-flight instead of running to its end.
// An aborted engine never reports Finished and its windows are partial —
// callers must discard it. For a ctx that is never cancelled, RunContext
// is behaviourally identical to Run (observation only; the simulated
// outcome is byte-for-byte the same).
func (e *Engine) RunContext(ctx context.Context) ([]WindowStats, error) {
	if e.finished {
		return e.windows, ErrFinished
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	// Detail mode runs the instruction stream through the core-sharded
	// group for the whole duration; it is drained at every window barrier
	// (Step) and torn down on every exit path, so an aborted run leaks no
	// goroutines. The group's auto mode collapses to direct dispatch into
	// the fused loop on 1-CPU hosts, where sharding could only add cost.
	if e.cfg.DetailFrac > 0 && e.shard == nil {
		sg, err := power4.NewShardGroup(e.sut.Cores, e.sut.Hier, power4.ShardConfig{})
		if err != nil {
			return e.windows, err
		}
		e.shard = sg
		defer func() {
			e.shard.Close()
			e.shard = nil
		}()
	}
	nWindows := int(e.cfg.DurationMS / e.cfg.WindowMS)
	if cap(e.windows)-len(e.windows) < nWindows {
		grown := make([]WindowStats, len(e.windows), len(e.windows)+nWindows)
		copy(grown, e.windows)
		e.windows = grown
	}
	for w := 0; w < nWindows; w++ {
		if err := ctx.Err(); err != nil {
			return e.windows, fmt.Errorf("sim: run aborted after %d windows: %w", len(e.windows), err)
		}
		if err := e.Step(); err != nil {
			return e.windows, err
		}
	}
	e.finished = true
	return e.windows, nil
}

// Step advances the simulation by one window.
func (e *Engine) Step() error {
	winStart := e.nowMS
	winEnd := winStart + e.cfg.WindowMS
	ws := WindowStats{
		Index:       len(e.windows),
		StartMS:     winStart,
		Completions: make([]int, e.sut.Server.App().NumClasses()),
	}

	for _, a := range e.drv.Window(e.cfg.WindowMS) {
		e.queue = append(e.queue, queuedReq{at: winStart + a.OffsetMS, rt: server.RequestType(a.Class)})
	}
	// Serve as much of the queue as fits this window: requests whose start
	// would fall past the window end stay queued, so slow (high-CPI)
	// windows genuinely execute fewer instructions — the capacity coupling
	// behind the paper's negative completion-cycle correlation.
	served := 0
	for _, q := range e.queue {
		// Cancellation point: a cancelled run stops between requests, so a
		// window heavy with queued work (the expensive case in detail mode)
		// aborts mid-window rather than running to its boundary. ctx.Err()
		// is side-effect free, so uncancelled runs are unperturbed.
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return fmt.Errorf("sim: window %d aborted: %w", len(e.windows), err)
			}
		}
		if e.coreFreeAt[e.earliestFreeCore()] >= winEnd {
			break
		}
		if e.sut.Heap.NeedsGC() {
			e.runGC(q.at)
		}
		if err := e.serve(q.at, q.rt, &ws, winEnd); err != nil {
			return err
		}
		served++
	}
	// Copy unserved arrivals to the front of the backing array instead of
	// reslicing forward: e.queue = e.queue[served:] would strand the served
	// prefix and keep every grown backing array live for the whole run.
	if served > 0 {
		n := copy(e.queue, e.queue[served:])
		e.queue = e.queue[:n]
	}
	// After a backlog burst drains, shed the oversized backing array.
	if cap(e.queue) > 1024 && len(e.queue) < cap(e.queue)/4 {
		compacted := make([]queuedReq, len(e.queue), cap(e.queue)/2)
		copy(compacted, e.queue)
		e.queue = compacted
	}

	// Attribute pending busy/sys/io time to this window.
	capMS := float64(len(e.sut.Cores)) * e.cfg.WindowMS
	busy := e.pendingBusy + e.pendingGCms*float64(len(e.sut.Cores))
	if busy > capMS {
		e.pendingBusy = busy - capMS
		busy = capMS
	} else {
		e.pendingBusy = 0
	}
	ws.UtilBusy = busy / capMS
	sys := e.pendingSys
	e.pendingSys = 0
	ws.UtilSys = clamp01(sys / capMS)
	ws.UtilUser = clamp01(ws.UtilBusy - ws.UtilSys)
	io := e.pendingIO
	e.pendingIO = 0
	ws.UtilIOWait = clamp01(io / capMS)
	ws.UtilIdle = clamp01(1 - ws.UtilBusy - ws.UtilIOWait)
	ws.GCs = e.pendingGCs
	ws.GCPauseMS = e.pendingGCms
	e.pendingGCs = 0
	e.pendingGCms = 0

	// Measured CPI feedback (detail mode).
	if e.cfg.DetailFrac > 0 {
		// Window barrier: the shard group publishes every in-flight
		// instruction's counters before the read below, so the CPI the
		// capacity feedback sees is exactly what the fused loop would have
		// accumulated by this point in the stream.
		if e.shard != nil {
			e.shard.Drain()
		}
		ctr := e.sut.AggregateCounters()
		dc := ctr.Get(power4.EvCycles) - e.lastCtr.cycles
		di := ctr.Get(power4.EvInstCompleted) - e.lastCtr.inst
		e.lastCtr = counterSnapshot{ctr.Get(power4.EvCycles), ctr.Get(power4.EvInstCompleted)}
		if di > 0 {
			ws.CPI = float64(dc) / float64(di)
			// Smooth the estimate used for capacity.
			e.cpiEst = 0.7*e.cpiEst + 0.3*ws.CPI
		}
	}

	e.windows = append(e.windows, ws)
	e.nowMS = winEnd
	if e.windowFn != nil {
		e.windowFn(ws)
	}
	for _, m := range e.monitors {
		m.Tick()
	}
	return nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// earliestFreeCore returns the index of the core that frees up first
// (lowest index on ties). Both the window-capacity check in Step and the
// M/G/c placement in serve share this single scan.
func (e *Engine) earliestFreeCore() int {
	idx := 0
	for i := 1; i < len(e.coreFreeAt); i++ {
		if e.coreFreeAt[i] < e.coreFreeAt[idx] {
			idx = i
		}
	}
	return idx
}

// serve runs one request through the queueing model and the server.
func (e *Engine) serve(at float64, rt server.RequestType, ws *WindowStats, winEnd float64) error {
	// Earliest-free core (M/G/c).
	core := e.earliestFreeCore()
	start := at
	if e.coreFreeAt[core] > start {
		start = e.coreFreeAt[core]
	}
	res, err := e.execute(at, rt, core)
	if err != nil {
		e.tracker.RecordFailure()
		return err
	}
	rate := e.simRatePerMS()
	serviceMS := float64(res.Instructions) / rate
	ioMS := e.sut.Pool.TakeIOWaitMS() + e.sut.DB.TakeLogWaitMS()
	ioWaitMS := 0.0
	if ioMS > 0 {
		// Synchronous page I/O queues on the disk array: with too few
		// spindles the wait grows far beyond the raw access time — the
		// paper's "I/O wait times would grow dramatically" failure mode.
		ioStart := start + serviceMS
		if e.diskFreeAt > ioStart {
			ioWaitMS = e.diskFreeAt - ioStart
		}
		e.diskFreeAt = ioStart + ioWaitMS + ioMS
		ioWaitMS += ioMS
	}
	finish := start + serviceMS + ioWaitMS
	e.coreFreeAt[core] = finish
	respMS := finish - at
	e.tracker.Record(int(rt), finish, respMS)
	if finish < winEnd {
		ws.Completions[rt]++
	}
	e.pendingBusy += serviceMS
	e.pendingSys += serviceMS * float64(res.Segments[server.SegKernel]) / float64(res.Instructions+1)
	e.pendingIO += ioWaitMS
	e.instrTotal += res.Instructions
	for i, v := range res.Segments {
		e.segTotals[i] += v
	}
	return nil
}

// execute runs the request, collecting on heap exhaustion and retrying.
func (e *Engine) execute(at float64, rt server.RequestType, core int) (server.Result, error) {
	var sink isa.Sink
	if e.cfg.DetailFrac > 0 {
		sink = e.detailSink(core)
	}
	for attempt := 0; ; attempt++ {
		res, err := e.sut.Server.Execute(at, rt, sink, e.cfg.DetailFrac)
		if err == nil {
			return res, nil
		}
		if errors.Is(err, jvm.ErrHeapFull) && attempt < 2 {
			e.runGC(at)
			if attempt == 1 {
				// Persistent fragmentation: compact (Section 4.1.1 says the
				// tuned system never reaches this; undersized heaps do).
				e.compact(at)
			}
			continue
		}
		return res, err
	}
}

// runGC performs a stop-the-world collection at time at.
func (e *Engine) runGC(at float64) {
	ev := e.sut.Heap.Collect(at)
	pause := ev.PauseMS()
	e.applyPause(at, pause)
	e.emitGCTrace(pause)
}

// compact performs a stop-the-world compaction.
func (e *Engine) compact(at float64) {
	ev := e.sut.Heap.Compact(at)
	e.applyPause(at, ev.CompactMS)
}

func (e *Engine) applyPause(at, pause float64) {
	for i := range e.coreFreeAt {
		if e.coreFreeAt[i] < at {
			e.coreFreeAt[i] = at
		}
		e.coreFreeAt[i] += pause
	}
	e.pendingGCms += pause
	e.pendingGCs++
}

// emitGCTrace streams the collector's instruction-level behaviour.
func (e *Engine) emitGCTrace(pauseMS float64) {
	// GC runs tighter code: charge it a lower CPI for instruction volume.
	gcRate := e.simRatePerMS() * e.cpiEst / 1.6
	totalSim := pauseMS * gcRate * float64(len(e.sut.Cores))
	e.gcInstrSim += uint64(totalSim)
	if e.cfg.DetailFrac <= 0 {
		return
	}
	n := int(totalSim * e.cfg.DetailFrac)
	per := n / len(e.sut.Cores)
	if per == 0 {
		return
	}
	for i := range e.sut.Cores {
		e.sut.Server.EmitGC(e.detailSink(i), per)
	}
}

// detailSink returns the instruction sink for one core: the shard
// group's per-core front end while one is attached, the core itself
// otherwise (Step driven directly, outside RunContext).
func (e *Engine) detailSink(core int) isa.Sink {
	if e.shard != nil {
		return e.shard.Sink(core)
	}
	return e.sut.Cores[core]
}

// MeanUtilization returns mean busy fraction over steady-state windows.
// Accumulated in place (same left-to-right summation as stats.Mean, so
// the value is bit-identical) rather than materializing a throwaway
// slice on every call.
func (e *Engine) MeanUtilization() float64 {
	var sum float64
	var n int
	for _, w := range e.windows {
		if w.StartMS >= e.cfg.RampMS {
			sum += w.UtilBusy
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
