package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"jasworkload/internal/hpm"
	"jasworkload/internal/loadgen"
	"jasworkload/internal/mem"
	"jasworkload/internal/sim"
	"jasworkload/internal/workload"
)

// This file is the run-artifact layer. An Artifact is the set of completed
// simulations for one canonical RunConfig: at most one request-level run
// and one instruction-detail run are ever executed per config, no matter
// how many figures, tables, reports, or benchmarks ask for them. All
// figure/table constructors are pure (memoized) views over the artifact,
// so regenerating the paper costs one pass over each fidelity instead of
// re-simulating per consumer.
//
// The store is split by fidelity. Detail runs (and the variant memos that
// hang off an artifact) key on the full canonical config — the DetailKey.
// Request-level runs key on the RequestKey: the canonical config with the
// detail-only knobs (HeapPageSize, DetailFrac) normalized away, because
// neither reaches the request-level engine. Every config sharing a
// RequestKey therefore shares one request-level simulation, which is what
// makes an N-cell page-size x detail-frac what-if grid cost
// distinct(RequestKey) request-level runs instead of N.

// memo is a concurrency-safe, error-preserving once-cell.
type memo[T any] struct {
	once sync.Once
	done atomic.Bool
	v    T
	err  error
}

// do computes the cell on first use; later calls (including concurrent
// ones, which block until the first completes) return the same result.
func (m *memo[T]) do(fn func() (T, error)) (T, error) {
	m.once.Do(func() {
		m.v, m.err = fn()
		m.done.Store(true)
	})
	return m.v, m.err
}

// ready reports whether the cell has been computed, without computing it.
func (m *memo[T]) ready() bool { return m.done.Load() }

// set pre-fills the cell with a value (no error), consuming its once. The
// persistent store uses it to hydrate figure memos from disk; a later do()
// returns the stored value without running its function.
func (m *memo[T]) set(v T) {
	m.once.Do(func() {
		m.v = v
		m.done.Store(true)
	})
}

// Artifact caches the runs for one canonical configuration.
type Artifact struct {
	// Cfg is the canonicalized configuration: per-scale defaults for
	// duration, ramp, and detail fraction are resolved so that two configs
	// describing the same experiment share one artifact.
	Cfg RunConfig

	// rlc is the shared request-level cell this artifact draws from; all
	// artifacts whose configs agree on the RequestKey point at one cell.
	rlc *rlCell

	det memo[*DetailRun]
	cc  memo[CrossChecks]
	sc  memo[ScalarsResult]
	lp  memo[LargePageAblation]

	winMu sync.Mutex
	winFn func(kind string, ws sim.WindowStats)
}

// canonical resolves per-scale defaults into explicit fields so the value
// can key the run store.
func (c RunConfig) canonical() RunConfig {
	c.DurationMS, c.RampMS = c.durations()
	c.DetailFrac = c.detail()
	if c.Workload == "" {
		c.Workload = workload.DefaultName
	}
	if c.Arrival != "" {
		// Normalize the arrival spec so equivalent spellings share one
		// artifact. A spec that fails to parse is left verbatim: the error
		// surfaces with full context when the engine is built, and the
		// malformed string still keys a distinct (failing) artifact.
		if canon, err := loadgen.CanonicalString(c.Arrival); err == nil {
			c.Arrival = canon
		}
	}
	return c
}

// Canonical returns the configuration with per-scale defaults resolved —
// the exact value that keys the run store. Two configs with equal
// Canonical() share one artifact (and therefore one simulation per
// fidelity); the serving layer uses it to derive stable job identifiers.
func (c RunConfig) Canonical() RunConfig { return c.canonical() }

// RequestKey identifies the request-level simulation a configuration
// needs. It is the canonical config with the detail-only knobs normalized
// away:
//
//   - DetailFrac is zeroed — the request-level engine always runs with
//     detail fraction 0 regardless of the config's sampling rate, so the
//     knob cannot perturb request-level behaviour.
//   - HeapPageSize is zeroed and replaced by HeapCapacity, the heap region
//     size after the memory layout rounds it up to a page multiple. The
//     page size reaches the request-level run only through that effective
//     capacity (translation structures are consulted by the detail model
//     alone), while the raw HeapBytes stays in the key because the SUT
//     derives the auto baseline-cache size from it unrounded.
//
// Two canonical configs with equal RequestKeys produce bit-identical
// request-level runs and therefore share one.
type RequestKey struct {
	cfg RunConfig
	// HeapCapacity is the page-rounded heap region size the run executes
	// with; it stands in for the page size, which cfg carries as Page4K.
	HeapCapacity uint64
}

// RequestKey derives the request-level cache key for the configuration.
func (c RunConfig) RequestKey() RequestKey {
	k := c.canonical()
	page := k.HeapPageSize.Bytes()
	cap := (k.HeapBytes + page - 1) / page * page
	k.HeapPageSize = mem.Page4K
	k.DetailFrac = 0
	return RequestKey{cfg: k, HeapCapacity: cap}
}

// rlCell is one shared request-level execution: a content-addressed slot
// in the run store that every artifact with the same RequestKey points at.
// The simulation inside runs under a cell-owned context that is cancelled
// only when every waiter has gone — one sweep cell's cancellation cannot
// abort a request-level run other live cells still want (the refcounted
// analogue of the service's job-reference semantics).
type rlCell struct {
	key RequestKey
	// repr is the canonical config of the first member that created the
	// cell; the shared simulation executes under it. Any member would do:
	// configs mapping to one RequestKey are request-level-equivalent by
	// construction (the split-key equivalence test pins this), and the
	// run's views consume the config only through its durations, which the
	// key fixes.
	repr RunConfig

	refs int // artifacts in the run store referencing this cell (runStore.mu)

	mu      sync.Mutex
	done    bool
	run     *RequestLevelRun
	err     error // failure of the current (finished) attempt
	running bool
	waiters int
	attempt chan struct{}      // closed when the in-flight attempt finishes
	cancel  context.CancelFunc // aborts the in-flight attempt

	obsMu sync.Mutex
	obs   map[*Artifact]sim.WindowFunc
}

func newRLCell(key RequestKey, repr RunConfig) *rlCell {
	return &rlCell{key: key, repr: repr, obs: map[*Artifact]sim.WindowFunc{}}
}

// addObserver registers an artifact's window observer with the cell; the
// adapter resolves the artifact's current registration at call time, so
// SetWindowFunc may land between artifact creation and the run.
func (c *rlCell) addObserver(a *Artifact, fn sim.WindowFunc) {
	c.obsMu.Lock()
	c.obs[a] = fn
	c.obsMu.Unlock()
}

// dropObserver unregisters a dropped artifact's observer.
func (c *rlCell) dropObserver(a *Artifact) {
	c.obsMu.Lock()
	delete(c.obs, a)
	c.obsMu.Unlock()
}

// broadcast fans one window out to every sharing artifact's observer, so
// each job streaming a cell of a sweep sees the shared run's windows.
func (c *rlCell) broadcast(ws sim.WindowStats) {
	c.obsMu.Lock()
	fns := make([]sim.WindowFunc, 0, len(c.obs))
	for _, fn := range c.obs {
		fns = append(fns, fn)
	}
	c.obsMu.Unlock()
	for _, fn := range fns {
		fn(ws)
	}
}

// ready reports whether the cell holds a completed run.
func (c *rlCell) ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// get returns the cell's request-level run, executing it on first use.
// The simulation runs under a cell-owned context: a caller whose ctx is
// cancelled merely stops waiting (and gets its ctx error); the run itself
// aborts mid-window only when the last waiter has gone. Completed runs are
// cached forever; a failed or aborted attempt is not sticky — the next
// caller re-executes, so a poisoned memo never outlives its waiters.
func (c *rlCell) get(ctx context.Context) (*RequestLevelRun, error) {
	for {
		c.mu.Lock()
		if c.done {
			run := c.run
			c.mu.Unlock()
			return run, nil
		}
		if !c.running {
			runCtx, cancel := context.WithCancel(context.Background())
			ch := make(chan struct{})
			c.running, c.err = true, nil
			c.attempt, c.cancel = ch, cancel
			go func() {
				run, err := c.execute(runCtx)
				cancel()
				c.mu.Lock()
				if err == nil {
					c.done, c.run = true, run
				} else {
					c.err = err
				}
				c.running = false
				close(ch)
				c.mu.Unlock()
			}()
		}
		ch := c.attempt
		c.waiters++
		c.mu.Unlock()

		select {
		case <-ch:
			c.mu.Lock()
			c.waiters--
			done, run, err := c.done, c.run, c.err
			c.mu.Unlock()
			if done {
				return run, nil
			}
			// The attempt failed. If it was aborted because earlier waiters
			// (not us) walked away, retry rather than surfacing their
			// cancellation; a genuine simulation error propagates.
			if isContextErr(err) && ctx.Err() == nil {
				continue
			}
			return nil, err
		case <-ctx.Done():
			c.mu.Lock()
			c.waiters--
			if c.waiters == 0 && c.running && c.cancel != nil {
				c.cancel()
			}
			c.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

// execute produces the cell's run: straight simulation without a
// persistent store, else the store-through path — serve a persisted entry
// (hydrated, zero simulations), or win the cross-replica lease, simulate,
// and persist. noteSim fires only when a simulation actually runs, so the
// serving layer's sims counter is an honest re-simulation detector.
func (c *rlCell) execute(ctx context.Context) (*RequestLevelRun, error) {
	cfg := c.repr
	simulate := func() (*RequestLevelRun, error) {
		noteSim("request-level")
		return runRequestLevel(ctx, cfg, c.broadcast)
	}
	st := CurrentStore()
	if st == nil {
		return simulate()
	}
	key := requestKeyHash(c.key)
	return runDeduped(ctx, st, kindRequestLevel, key,
		func() (*RequestLevelRun, bool) { return st.loadRequestLevel(key, cfg) },
		simulate,
		func(run *RequestLevelRun) { st.saveRequestLevel(key, run) })
}

// isContextErr reports whether err stems from context cancellation or a
// deadline (possibly wrapped).
func isContextErr(err error) bool {
	return err != nil && (err == context.Canceled || err == context.DeadlineExceeded ||
		contextUnwrap(err))
}

func contextUnwrap(err error) bool {
	type unwrapper interface{ Unwrap() error }
	for {
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
		if err == context.Canceled || err == context.DeadlineExceeded {
			return true
		}
		if err == nil {
			return false
		}
	}
}

// runStore maps canonical configs to their artifacts and request keys to
// their shared request-level cells, and counts lookup hits/misses per
// store so a serving layer can export its dedup effectiveness.
var runStore = struct {
	mu       sync.Mutex
	arts     map[RunConfig]*Artifact
	cells    map[RequestKey]*rlCell
	hits     uint64
	misses   uint64
	rlHits   uint64
	rlMisses uint64
}{arts: map[RunConfig]*Artifact{}, cells: map[RequestKey]*rlCell{}}

// ForConfig returns the shared artifact for cfg, creating it (without
// running anything yet) on first use. Creation also resolves the config's
// request-level cell: an existing cell for the same RequestKey is adopted
// (and refcounted), so the artifact's request-level fidelity is shared
// with every other config that differs only in detail-only knobs.
func ForConfig(cfg RunConfig) *Artifact {
	key := cfg.canonical()
	runStore.mu.Lock()
	defer runStore.mu.Unlock()
	if a, ok := runStore.arts[key]; ok {
		runStore.hits++
		return a
	}
	runStore.misses++
	a := &Artifact{Cfg: key}
	rk := key.RequestKey()
	cell, ok := runStore.cells[rk]
	if ok {
		runStore.rlHits++
	} else {
		runStore.rlMisses++
		cell = newRLCell(rk, key)
		runStore.cells[rk] = cell
	}
	cell.refs++
	cell.addObserver(a, a.windowFunc("request-level"))
	a.rlc = cell
	runStore.arts[key] = a
	return a
}

// CacheStats reports artifact-store lookups since process start (or the
// last ResetCacheStats): hits are ForConfig calls that found an existing
// artifact, misses created one. Flush does not reset the counters.
func CacheStats() (hits, misses uint64) {
	runStore.mu.Lock()
	defer runStore.mu.Unlock()
	return runStore.hits, runStore.misses
}

// FidelityCacheStats is one store's lookup counters.
type FidelityCacheStats struct {
	Hits   uint64
	Misses uint64
}

// SplitCacheStats reports the per-fidelity store counters: artifact
// lookups (the full canonical config — detail fidelity and variant memos)
// and request-level cell lookups (the RequestKey store). A request-level
// hit on an artifact miss is the split paying off: a new detail
// configuration adopted an existing request-level run.
func SplitCacheStats() (artifact, requestLevel FidelityCacheStats) {
	runStore.mu.Lock()
	defer runStore.mu.Unlock()
	return FidelityCacheStats{Hits: runStore.hits, Misses: runStore.misses},
		FidelityCacheStats{Hits: runStore.rlHits, Misses: runStore.rlMisses}
}

// ResetCacheStats zeroes the hit/miss counters of both stores.
func ResetCacheStats() {
	runStore.mu.Lock()
	defer runStore.mu.Unlock()
	runStore.hits, runStore.misses = 0, 0
	runStore.rlHits, runStore.rlMisses = 0, 0
}

// Flush drops every cached artifact and request-level cell. Long sweeps
// over many configurations can call it to bound memory; the next request
// for any config re-runs the simulation.
func Flush() {
	runStore.mu.Lock()
	defer runStore.mu.Unlock()
	runStore.arts = map[RunConfig]*Artifact{}
	runStore.cells = map[RequestKey]*rlCell{}
}

// Drop evicts a from the run store, releasing the simulations it caches
// for garbage collection once the last consumer lets go. The removal is
// identity-guarded: if the store has since been re-populated with a fresh
// artifact for the same config (after an earlier Drop), that newer
// artifact is left alone. The artifact's request-level cell is
// refcounted: dropping one artifact only releases its reference, and the
// cell (with its cached run) stays in the store while other live
// artifacts — sweep cells sharing the RequestKey — still point at it;
// the last reference removes the cell too. Serving layers use Drop both
// to reclaim the memory of retired runs and to retire an artifact whose
// execution was cancelled mid-run (detail-fidelity memos cache the
// cancellation error forever; the request-level cell never does — failed
// attempts re-execute for the next caller).
// Reports whether a was the registered artifact and got removed.
func Drop(a *Artifact) bool {
	if a == nil {
		return false
	}
	runStore.mu.Lock()
	defer runStore.mu.Unlock()
	if runStore.arts[a.Cfg] != a {
		return false
	}
	delete(runStore.arts, a.Cfg)
	if cell := a.rlc; cell != nil {
		cell.dropObserver(a)
		cell.refs--
		if cell.refs <= 0 && runStore.cells[cell.key] == cell {
			delete(runStore.cells, cell.key)
		}
	}
	return true
}

// StoreSizes reports how many artifacts and request-level cells are
// resident — the split the serving layer's /metrics exports so the
// distinct(RequestKey) saving is observable, not asserted.
func StoreSizes() (artifacts, requestLevelCells int) {
	runStore.mu.Lock()
	defer runStore.mu.Unlock()
	return len(runStore.arts), len(runStore.cells)
}

// simStats counts simulations actually executed, by kind. The artifact
// cache tests use it to prove that views never trigger fresh runs.
var simStats = struct {
	mu     sync.Mutex
	counts map[string]int
}{counts: map[string]int{}}

// noteSim records one executed simulation of the given kind.
func noteSim(kind string) {
	simStats.mu.Lock()
	simStats.counts[kind]++
	simStats.mu.Unlock()
}

// simCount returns how many simulations of the given kind ran since the
// last reset.
func simCount(kind string) int {
	simStats.mu.Lock()
	defer simStats.mu.Unlock()
	return simStats.counts[kind]
}

// resetSimStats zeroes the counters (test hook).
func resetSimStats() {
	simStats.mu.Lock()
	simStats.counts = map[string]int{}
	simStats.mu.Unlock()
}

// SimCounts returns a copy of the executed-simulation counters by kind
// ("request-level", "detail", "variant"). The serving layer's determinism
// guard uses it to prove that N concurrent clients cost one simulation,
// and the sweep machinery to prove an N-cell grid costs
// distinct(RequestKey) request-level runs.
func SimCounts() map[string]int {
	simStats.mu.Lock()
	defer simStats.mu.Unlock()
	out := make(map[string]int, len(simStats.counts))
	for k, v := range simStats.counts {
		out[k] = v
	}
	return out
}

// ResetSimCounts zeroes the executed-simulation counters.
func ResetSimCounts() { resetSimStats() }

// SetWindowFunc registers fn to observe every window the artifact's future
// simulations complete; kind names the producing run ("request-level" or
// "detail"). Registration must happen before the corresponding run starts
// to see its windows — runs already executed do not replay. The
// request-level run may be shared: every sharing artifact's observer sees
// its windows. fn is invoked from the simulation goroutine (possibly two
// concurrently, one per fidelity) and must be internally synchronized and
// fast.
func (a *Artifact) SetWindowFunc(fn func(kind string, ws sim.WindowStats)) {
	a.winMu.Lock()
	a.winFn = fn
	a.winMu.Unlock()
}

// windowFunc adapts the registered observer for one run kind, resolving
// the current registration at call time so SetWindowFunc may land between
// artifact creation and the first execution.
func (a *Artifact) windowFunc(kind string) sim.WindowFunc {
	return func(ws sim.WindowStats) {
		a.winMu.Lock()
		fn := a.winFn
		a.winMu.Unlock()
		if fn != nil {
			fn(kind, ws)
		}
	}
}

// Ready reports, without triggering execution, which of the artifact's two
// fidelities have completed. The serving layer maps this to job phase
// status. The request-level fidelity may have been completed by a sharing
// config's run.
func (a *Artifact) Ready() (requestLevel, detail bool) {
	return a.rlc.ready(), a.det.ready()
}

// RequestLevel returns the artifact's request-level run, executing it on
// first use. Figures 2-4 and the whole-system scalars are views of it.
// The run is shared: every artifact whose config differs only in
// detail-only knobs (HeapPageSize, DetailFrac) returns the same run.
func (a *Artifact) RequestLevel() (*RequestLevelRun, error) {
	return a.RequestLevelContext(context.Background())
}

// RequestLevelContext is RequestLevel with a cancellable wait: ctx bounds
// this caller, while the simulation itself runs under the shared cell's
// own context and aborts mid-window only when every waiting caller has
// cancelled — one sweep cell letting go cannot kill the run its sibling
// cells still want. A ctx that is never cancelled changes nothing: the
// run is byte-identical to an uncancellable one.
func (a *Artifact) RequestLevelContext(ctx context.Context) (*RequestLevelRun, error) {
	return a.rlc.get(ctx)
}

// Detail returns the artifact's instruction-detail run, executing it on
// first use. The run always collects every standard HPM group — monitors
// are pure observers, so one detail execution serves any group subset; the
// groups argument only validates that the caller's names exist.
func (a *Artifact) Detail(groups ...string) (*DetailRun, error) {
	return a.DetailContext(context.Background(), groups...)
}

// DetailContext is Detail with a cancellable execution: the memo executes
// once — the ctx of the first caller governs the run, and a cancelled
// execution leaves the artifact caching the cancellation error (Drop it
// to run the config afresh).
func (a *Artifact) DetailContext(ctx context.Context, groups ...string) (*DetailRun, error) {
	for _, name := range groups {
		if _, ok := hpm.GroupByName(hpm.StandardGroups(), name); !ok {
			return nil, fmt.Errorf("core: unknown HPM group %q", name)
		}
	}
	return a.det.do(func() (*DetailRun, error) {
		simulate := func() (*DetailRun, error) {
			noteSim("detail")
			return runDetail(ctx, a.Cfg, a.windowFunc("detail"), standardGroupNames()...)
		}
		st := CurrentStore()
		if st == nil {
			return simulate()
		}
		key := detailKeyHash(a.Cfg)
		return runDeduped(ctx, st, kindDetail, key,
			func() (*DetailRun, bool) { return st.loadDetail(key, a.Cfg) },
			simulate,
			func(d *DetailRun) { st.saveDetail(key, d) })
	})
}

// standardGroupNames lists every standard HPM group name.
func standardGroupNames() []string {
	gs := hpm.StandardGroups()
	names := make([]string, len(gs))
	for i, g := range gs {
		names[i] = g.Name
	}
	return names
}
