package core

import (
	"runtime"
	"sync"

	"jasworkload/internal/power4"
)

// The experiment scheduler: a bounded worker pool that runs independent
// simulations concurrently. Every simulation owns its seeded RNGs and its
// own SUT, so results are bit-identical regardless of GOMAXPROCS or the
// configured parallelism — the scheduler only changes wall-clock time, never
// outcomes. TestBuildReportDeterministic is the guard for that claim.

var (
	parMu       sync.Mutex
	maxParallel = runtime.NumCPU()
)

// Parallelism returns the maximum number of simulations run concurrently.
func Parallelism() int {
	parMu.Lock()
	defer parMu.Unlock()
	return maxParallel
}

// SetParallelism bounds the number of concurrently running simulations and
// returns the previous bound. n < 1 resets to runtime.NumCPU().
func SetParallelism(n int) int {
	parMu.Lock()
	defer parMu.Unlock()
	prev := maxParallel
	if n < 1 {
		n = runtime.NumCPU()
	}
	maxParallel = n
	return prev
}

// DetailShards reports the shard count a detail run started now would
// use: 0 when the auto mode collapses to the fused loop (no host
// parallelism), otherwise one worker per simulated core up to GOMAXPROCS.
func DetailShards() int {
	tc := power4.DefaultTopologyConfig()
	return power4.AutoShards(tc.Chips * tc.CoresPerChip)
}

// ShardMergeStalls re-exports the process-wide per-shard merge-stall
// counters (see power4.ShardMergeStalls).
func ShardMergeStalls() []uint64 { return power4.ShardMergeStalls() }

// Group runs a set of tasks with bounded concurrency and collects the
// first error (errgroup-style, without the external dependency).
type Group struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewGroup creates a pool admitting at most limit concurrent tasks
// (limit < 1 means Parallelism()).
func NewGroup(limit int) *Group {
	if limit < 1 {
		limit = Parallelism()
	}
	return &Group{sem: make(chan struct{}, limit)}
}

// Go schedules fn; it blocks only when the pool is saturated with waiting
// goroutines (each task parks on the semaphore, so Go itself returns
// immediately). Once any task has failed, tasks that have not yet been
// admitted by the semaphore are skipped instead of launched: a failed
// report phase (or a cancelled run) short-circuits the rest of its batch
// rather than burning a full simulation per queued task.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.sem <- struct{}{}
		defer func() { <-g.sem }()
		g.mu.Lock()
		failed := g.err != nil
		g.mu.Unlock()
		if failed {
			return
		}
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every scheduled task finished and returns the first
// error encountered.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
