package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/db"
	"jasworkload/internal/driver"
	"jasworkload/internal/hpm"
	"jasworkload/internal/isa"
	"jasworkload/internal/jvm"
	"jasworkload/internal/loadgen"
	"jasworkload/internal/mem"
	"jasworkload/internal/power4"
	"jasworkload/internal/server"
	"jasworkload/internal/sim"
	"jasworkload/internal/workload"
)

// The layer replay composes the lower layers from their own public
// functions, in the order the engine calls them, so each call can carry a
// span: the driver (or loadgen source) produces a window's arrivals; each
// arrival runs through server.Execute, whose detail stream feeds the
// production schedule (a power4.ShardGroup built as the engine builds it)
// through a timing sink; the JVM heap collects when it runs low; and once
// per window the group drains and the HPM monitors tick. It is not the
// engine: arrivals go to cores round-robin with no capacity model, so its
// request and instruction totals are its own. What it yields is each
// layer's cost per unit of work, which scales the end-to-end run's counts.

// replayStats is what one replay of one config did.
type replayStats struct {
	wall      time.Duration
	windows   int
	arrivals  int
	requests  int
	emitInstr uint64
	cycles    uint64
	inst      uint64
	samples   int
	gcs       int
	compacts  int
	allocMB   float64
	shardMode string
	shards    int
	stalls    uint64
	classes   []int // executed request classes, in order, for the db replay
}

// add sums another replay into r.
func (r *replayStats) add(o replayStats) {
	r.wall += o.wall
	r.windows += o.windows
	r.arrivals += o.arrivals
	r.requests += o.requests
	r.emitInstr += o.emitInstr
	r.cycles += o.cycles
	r.inst += o.inst
	r.samples += o.samples
	r.gcs += o.gcs
	r.compacts += o.compacts
	r.allocMB += o.allocMB
	r.stalls += o.stalls
	if o.shardMode != "" {
		r.shardMode, r.shards = o.shardMode, o.shards
	}
}

// fingerprint is what must not change when spans are switched on.
func (r replayStats) fingerprint() string {
	return fmt.Sprintf("cycles=%d inst=%d requests=%d gcs=%d compactions=%d alloc=%.6fMB",
		r.cycles, r.inst, r.requests, r.gcs, r.compacts, r.allocMB)
}

// counterSource adapts the SUT's aggregate counters for hpm monitors.
type counterSource struct{ sut *sim.SUT }

func (c counterSource) Counters() power4.Counters { return c.sut.AggregateCounters() }

// timingSink wraps a core's ShardGroup sink and records every batch it
// forwards as a power4.feed span under the enclosing server span. It keeps
// the wrapped sink's CoreID, which the trace emitter reads for per-core
// data affinity, so the instruction stream is unchanged.
type timingSink struct {
	inner  isa.BatchSink
	core   int
	tr     *Tracer
	parent *int32
	req    string
	instr  *uint64
}

func (s *timingSink) CoreID() int { return s.core }

func (s *timingSink) Consume(ins *isa.Instr) {
	t0 := time.Now()
	s.inner.Consume(ins)
	s.tr.Add("power4.feed", *s.parent, s.req, t0, time.Now())
	*s.instr++
}

func (s *timingSink) ConsumeBatch(b isa.Batch) {
	t0 := time.Now()
	s.inner.ConsumeBatch(b)
	s.tr.Add("power4.feed", *s.parent, s.req, t0, time.Now())
	*s.instr += uint64(len(b))
}

// buildSUT assembles the system under test for a canonical run config the
// way core does, from sim's and workload's public functions.
func buildSUT(cfg core.RunConfig) (*sim.SUT, *server.App, error) {
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return nil, nil, err
	}
	scfg := sim.DefaultSUTConfig(cfg.IR)
	scfg.Seed = cfg.Seed
	scfg.HeapBytes = cfg.HeapBytes
	scfg.HeapPageSize = cfg.HeapPageSize
	scfg.BaselineCacheBytes = cfg.BaselineCacheBytes
	scfg.App = server.AppFor(w)
	scfg.Profile = w.TuneProfile(scfg.Profile)
	if cfg.Scale == core.ScaleQuick {
		scfg.Profile.NumMethods = 850
		scfg.Profile.WarmSet = 60
	}
	sut, err := sim.BuildSUT(scfg)
	return sut, scfg.App, err
}

// newArrivals builds the driver, or the loadgen source when the config
// carries an arrival spec, as the engine does.
func newArrivals(cfg core.RunConfig, app *server.App, windows int) (driver.Source, error) {
	if cfg.Arrival == "" {
		d, err := driver.New(driver.Config{IR: cfg.IR, Rates: app.Rates(), Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	spec, err := loadgen.Parse([]byte(cfg.Arrival))
	if err != nil {
		return nil, err
	}
	src, err := spec.NewSource(loadgen.SourceConfig{IR: cfg.IR, Rates: app.Rates(), ClassNames: app.ClassNames(), Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := src.CheckRun(windowMS, windows); err != nil {
		return nil, err
	}
	return src, nil
}

const windowMS = 1000

// replayConfig runs the layer replay of one canonical config. detailFrac 0
// replays request-level fidelity (no sink, no shard group, no monitors).
// A nil tracer runs it with spans off.
func replayConfig(cfg core.RunConfig, detailFrac float64, tr *Tracer, req string) (replayStats, error) {
	var st replayStats
	sut, app, err := buildSUT(cfg)
	if err != nil {
		return st, err
	}
	windows := int(cfg.DurationMS / windowMS)
	src, err := newArrivals(cfg, app, windows)
	if err != nil {
		return st, err
	}
	sut.JIT.Precompile(0.98)
	sut.JIT.WarmUp(0.97)

	t0 := time.Now()
	root := tr.Begin("replay", 0, req)
	defer tr.End(root)
	parent := root
	ncores := len(sut.Cores)
	sinks := make([]isa.Sink, ncores)
	var sg *power4.ShardGroup
	var mons []*hpm.Monitor
	if detailFrac > 0 {
		sg, err = power4.NewShardGroup(sut.Cores, sut.Hier, power4.ShardConfig{})
		if err != nil {
			return st, err
		}
		defer sg.Close()
		st.shardMode, st.shards = sg.Mode(), sg.Shards()
		for i := range sinks {
			if tr == nil {
				sinks[i] = sg.Sink(i)
			} else {
				sinks[i] = &timingSink{inner: sg.Sink(i), core: i, tr: tr, parent: &parent, req: req, instr: &st.emitInstr}
			}
		}
		for _, g := range hpm.StandardGroups() {
			m, err := hpm.NewMonitor(counterSource{sut}, g, windowMS)
			if err != nil {
				return st, err
			}
			mons = append(mons, m)
		}
	}
	ecfg := sim.DefaultEngineConfig()
	gcInstrPerMS := ecfg.ClockHz / (ecfg.InstrScale * 1000 * 1.6)

	collect := func(at float64, compact bool) {
		name := "jvm.gc"
		if compact {
			name = "jvm.compact"
		}
		id := tr.Begin(name, root, req)
		var ev jvm.GCEvent
		if compact {
			ev = sut.Heap.Compact(at)
		} else {
			ev = sut.Heap.Collect(at)
		}
		tr.End(id)
		if compact || detailFrac <= 0 {
			return
		}
		// The collector's own instruction stream, sized as the engine
		// sizes it.
		per := int(ev.PauseMS()*gcInstrPerMS*float64(ncores)*detailFrac) / ncores
		if per == 0 {
			return
		}
		id = tr.Begin("server.emit_gc", root, req)
		parent = id
		for i := range sinks {
			sut.Server.EmitGC(sinks[i], per)
		}
		parent = root
		tr.End(id)
	}

	for w := 0; w < windows; w++ {
		winStart := float64(w * windowMS)
		id := tr.Begin("driver.window", root, req)
		arrivals := src.Window(windowMS)
		tr.End(id)
		st.arrivals += len(arrivals)
		for i, a := range arrivals {
			at := winStart + a.OffsetMS
			if sut.Heap.NeedsGC() {
				collect(at, false)
			}
			for attempt := 0; ; attempt++ {
				id := tr.Begin("server.execute", root, req)
				parent = id
				_, err := sut.Server.Execute(at, server.RequestType(a.Class), sinks[i%ncores], detailFrac)
				parent = root
				tr.End(id)
				if err == nil {
					break
				}
				if !errors.Is(err, jvm.ErrHeapFull) || attempt >= 2 {
					return st, fmt.Errorf("replay window %d: %w", w, err)
				}
				collect(at, false)
				if attempt == 1 {
					collect(at, true)
				}
			}
			st.requests++
			st.classes = append(st.classes, a.Class)
		}
		if sg != nil {
			id := tr.Begin("power4.drain", root, req)
			sg.Drain()
			tr.End(id)
			id = tr.Begin("hpm.tick", root, req)
			sut.AggregateCounters()
			for _, m := range mons {
				m.Tick()
			}
			tr.End(id)
		}
		st.windows++
	}
	ctr := sut.AggregateCounters()
	st.cycles, st.inst = ctr.Get(power4.EvCycles), ctr.Get(power4.EvInstCompleted)
	for _, m := range mons {
		st.samples += len(m.Samples())
	}
	if sg != nil {
		for _, s := range sg.MergeStalls() {
			st.stalls += s
		}
	}
	for _, ev := range sut.Heap.Events() {
		if ev.Compacted {
			st.compacts++
		} else {
			st.gcs++
		}
	}
	st.allocMB = float64(sut.Heap.AllocatedBytes()) / (1 << 20)
	st.wall = time.Since(t0)
	return st, nil
}

// dbStats is what the db replay did.
type dbStats struct {
	txns       int
	wall       time.Duration
	touches    int
	hitRatio   float64
	walAppends uint64
	walFlushes uint64
}

// replayDB plays the pack's database script for the given request classes
// against a database populated by the pack's LoadDB with the WAL enabled,
// as sim.BuildSUT sets it up, with nothing else around it.
func replayDB(cfg core.RunConfig, classes []int, tr *Tracer, req string) (dbStats, error) {
	var st dbStats
	w, err := workload.Get(cfg.Workload)
	if err != nil {
		return st, err
	}
	lcfg := mem.DefaultLayoutConfig()
	lcfg.HeapBytes = cfg.HeapBytes
	lcfg.HeapPageSize = cfg.HeapPageSize
	layout, err := mem.NewLayout(lcfg)
	if err != nil {
		return st, err
	}
	pool, err := db.NewBufferPool(layout.DBBuffer, 4096, db.RAMDisk{})
	if err != nil {
		return st, err
	}
	database, err := db.NewDatabase(pool)
	if err != nil {
		return st, err
	}
	if err := w.LoadDB(database, cfg.IR, cfg.Seed); err != nil {
		return st, err
	}
	if err := database.EnableWAL(8); err != nil {
		return st, err
	}
	ctx := &workload.DBCtx{DB: database, Rng: rand.New(rand.NewSource(cfg.Seed)), IR: cfg.IR}
	id := tr.Begin("db.txns", 0, req)
	t0 := time.Now()
	for _, c := range classes {
		if err := w.RunDB(ctx, c); err != nil {
			tr.End(id)
			return st, fmt.Errorf("db replay: %w", err)
		}
	}
	st.wall = time.Since(t0)
	tr.End(id)
	st.txns = len(classes)
	st.touches = database.TouchCount()
	st.hitRatio = pool.HitRate()
	st.walAppends = database.WAL().Appended()
	st.walFlushes = database.WAL().Flushes()
	return st, nil
}
