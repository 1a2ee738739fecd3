package service

import (
	"fmt"
	"io"
	"sync"

	"jasworkload/internal/core"
)

// gcPauseBucketsMS are the upper bounds (milliseconds) of the GC-pause
// histogram. The paper's measured pauses sit in the 300-400 ms band at
// 1 GB heap; quick-scale runs land lower, so the buckets cover both.
var gcPauseBucketsMS = []float64{25, 50, 100, 200, 400, 800, 1600}

// Metrics is the service's observability state, exported in Prometheus
// text exposition format by WriteTo. Everything is guarded by one mutex —
// updates happen at job-lifecycle granularity (plus one histogram
// observation per simulated window with a GC), far from any hot path.
type Metrics struct {
	mu sync.Mutex

	jobsDone      uint64
	jobsFailed    uint64
	jobsRejected  uint64
	jobsDropped   uint64 // queued jobs failed by shutdown
	jobsCancelled uint64 // aborted by DELETE/disconnect or a deadline
	jobsEvicted   uint64 // retired from the done-ring (TTL or capacity)
	dedupHits     uint64
	httpRequests  uint64
	windowsSeen   uint64

	sweepsDone     uint64
	sweepsFailed   uint64
	sweepsCanceled uint64
	sweepCells     uint64 // grid cells expanded across all sweeps

	inFlight int64

	haveRun bool
	jops    float64
	cpi     float64

	gcBucketCount []uint64
	gcSumMS       float64
	gcCount       uint64
}

// NewMetrics returns an empty metrics surface.
func NewMetrics() *Metrics {
	return &Metrics{gcBucketCount: make([]uint64, len(gcPauseBucketsMS))}
}

func (m *Metrics) incJobsDone()      { m.mu.Lock(); m.jobsDone++; m.mu.Unlock() }
func (m *Metrics) incJobsFailed()    { m.mu.Lock(); m.jobsFailed++; m.mu.Unlock() }
func (m *Metrics) incJobsRejected()  { m.mu.Lock(); m.jobsRejected++; m.mu.Unlock() }
func (m *Metrics) incJobsDropped()   { m.mu.Lock(); m.jobsDropped++; m.mu.Unlock() }
func (m *Metrics) incJobsCancelled() { m.mu.Lock(); m.jobsCancelled++; m.mu.Unlock() }
func (m *Metrics) incJobsEvicted()   { m.mu.Lock(); m.jobsEvicted++; m.mu.Unlock() }
func (m *Metrics) incDedupHits()     { m.mu.Lock(); m.dedupHits++; m.mu.Unlock() }
func (m *Metrics) incHTTPRequests()  { m.mu.Lock(); m.httpRequests++; m.mu.Unlock() }

func (m *Metrics) addInFlight(d int64) { m.mu.Lock(); m.inFlight += d; m.mu.Unlock() }

// addSweepCells charges one submitted sweep's expanded cell count.
func (m *Metrics) addSweepCells(n uint64) { m.mu.Lock(); m.sweepCells += n; m.mu.Unlock() }

// incSweeps counts one terminal sweep by disposition.
func (m *Metrics) incSweeps(state State) {
	m.mu.Lock()
	switch state {
	case StateDone:
		m.sweepsDone++
	case StateCanceled:
		m.sweepsCanceled++
	default:
		m.sweepsFailed++
	}
	m.mu.Unlock()
}

// setRunScalars records the latest finished run's headline scalars.
func (m *Metrics) setRunScalars(jops, cpi float64) {
	m.mu.Lock()
	m.haveRun, m.jops, m.cpi = true, jops, cpi
	m.mu.Unlock()
}

// observeWindow folds one simulated window into the streaming counters and
// the GC pause histogram.
func (m *Metrics) observeWindow(gcs int, gcPauseMS float64) {
	m.mu.Lock()
	m.windowsSeen++
	if gcs > 0 {
		m.gcCount++
		m.gcSumMS += gcPauseMS
		for i, ub := range gcPauseBucketsMS {
			if gcPauseMS <= ub {
				m.gcBucketCount[i]++
			}
		}
	}
	m.mu.Unlock()
}

// WriteTo renders the Prometheus text exposition. queueDepth, queueCap,
// residentJobs, residentSweeps, and hubBytes are sampled by the caller
// (they live in the Service, not here). Output order is fixed, so scrapes
// are diffable.
func (m *Metrics) WriteTo(w io.Writer, queueDepth, queueCap, residentJobs, residentSweeps, hubBytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	gauge("jasd_queue_depth", "Jobs waiting for a worker.", float64(queueDepth))
	gauge("jasd_queue_capacity", "Maximum number of waiting jobs before submissions are rejected.", float64(queueCap))
	gauge("jasd_jobs_inflight", "Jobs currently executing on the worker pool.", float64(m.inFlight))
	gauge("jasd_resident_jobs", "Jobs held in memory (running, queued, or awaiting done-ring eviction).", float64(residentJobs))
	gauge("jasd_resident_sweeps", "Sweeps held in memory (running or awaiting eviction).", float64(residentSweeps))
	gauge("jasd_hub_bytes", "Bytes of buffered stream events (windows and sweep rows) across all resident hubs.", float64(hubBytes))

	fmt.Fprintf(w, "# HELP jasd_jobs_total Jobs by terminal disposition.\n# TYPE jasd_jobs_total counter\n")
	fmt.Fprintf(w, "jasd_jobs_total{state=\"done\"} %d\n", m.jobsDone)
	fmt.Fprintf(w, "jasd_jobs_total{state=\"failed\"} %d\n", m.jobsFailed)
	fmt.Fprintf(w, "jasd_jobs_total{state=\"rejected\"} %d\n", m.jobsRejected)
	fmt.Fprintf(w, "jasd_jobs_total{state=\"dropped\"} %d\n", m.jobsDropped)
	fmt.Fprintf(w, "jasd_jobs_total{state=\"canceled\"} %d\n", m.jobsCancelled)

	counter("jasd_jobs_cancelled_total", "Jobs aborted by cancellation or a run deadline.", m.jobsCancelled)
	counter("jasd_jobs_evicted_total", "Terminal jobs retired from the done-ring by TTL or capacity.", m.jobsEvicted)
	counter("jasd_dedup_hits_total", "Submissions coalesced onto an existing job for the same canonical config.", m.dedupHits)

	fmt.Fprintf(w, "# HELP jasd_sweeps_total Sweeps by terminal disposition.\n# TYPE jasd_sweeps_total counter\n")
	fmt.Fprintf(w, "jasd_sweeps_total{state=\"done\"} %d\n", m.sweepsDone)
	fmt.Fprintf(w, "jasd_sweeps_total{state=\"failed\"} %d\n", m.sweepsFailed)
	fmt.Fprintf(w, "jasd_sweeps_total{state=\"canceled\"} %d\n", m.sweepsCanceled)
	counter("jasd_sweep_cells_total", "Grid cells expanded across all submitted sweeps (after dedup).", m.sweepCells)

	artStats, rlStats := core.SplitCacheStats()
	counter("jasd_artifact_cache_hits_total", "Run-store lookups that found a cached artifact.", artStats.Hits)
	counter("jasd_artifact_cache_misses_total", "Run-store lookups that created a new artifact.", artStats.Misses)
	counter("jasd_request_cache_hits_total", "Request-level cell lookups that adopted an existing shared run.", rlStats.Hits)
	counter("jasd_request_cache_misses_total", "Request-level cell lookups that created a new shared run slot.", rlStats.Misses)

	arts, cells := core.StoreSizes()
	gauge("jasd_store_artifacts", "Artifacts resident in the run store (full canonical configs).", float64(arts))
	gauge("jasd_store_request_cells", "Shared request-level cells resident in the run store.", float64(cells))

	fmt.Fprintf(w, "# HELP jasd_sims_total Simulations actually executed, by kind.\n# TYPE jasd_sims_total counter\n")
	sims := core.SimCounts()
	for _, kind := range []string{"request-level", "detail", "variant"} {
		fmt.Fprintf(w, "jasd_sims_total{kind=%q} %d\n", kind, sims[kind])
	}

	// The persistent-store series exist only when a store is installed
	// (-store-dir), so a storeless scrape stays byte-compatible with older
	// daemons.
	if ps, ok := core.PersistentStoreStats(); ok {
		fmt.Fprintf(w, "# HELP jasd_store_hits_total Persistent-store loads served from disk, by entry kind.\n# TYPE jasd_store_hits_total counter\n")
		for _, kind := range ps.Kinds() {
			fmt.Fprintf(w, "jasd_store_hits_total{kind=%q} %d\n", kind, ps.Hits[kind])
		}
		fmt.Fprintf(w, "# HELP jasd_store_misses_total Persistent-store loads that found no usable entry, by entry kind.\n# TYPE jasd_store_misses_total counter\n")
		for _, kind := range ps.Kinds() {
			fmt.Fprintf(w, "jasd_store_misses_total{kind=%q} %d\n", kind, ps.Misses[kind])
		}
		counter("jasd_store_writes_total", "Entries written to the persistent store.", ps.Writes)
		counter("jasd_store_write_failures_total", "Persistent-store writes that failed (entry not persisted; run unaffected).", ps.WriteFails)
		counter("jasd_store_corrupt_total", "Torn or damaged store entries detected and treated as misses.", ps.Corrupt)
		counter("jasd_store_lease_waits_total", "Loads that waited out another replica's lease instead of simulating.", ps.LeaseWaits)
		gauge("jasd_store_bytes", "Bytes resident in the persistent store directory.", float64(ps.Bytes))
	}

	gauge("jasd_detail_shards", "Shard workers a detail run started now would use (0 = auto-collapsed to the fused loop).", float64(core.DetailShards()))
	// One series per shard index that ever stalled the merge, plus every
	// index a current run would use — so the series set is stable across
	// scrapes of an active daemon but quiet indices never pollute it.
	fmt.Fprintf(w, "# HELP jasd_shard_merge_stalls_total Times the deterministic coherence merge had to wait on a shard for the next batch in global order.\n# TYPE jasd_shard_merge_stalls_total counter\n")
	active := core.DetailShards()
	for i, n := range core.ShardMergeStalls() {
		if i < active || n > 0 {
			fmt.Fprintf(w, "jasd_shard_merge_stalls_total{shard=\"%d\"} %d\n", i, n)
		}
	}

	counter("jasd_http_requests_total", "HTTP requests served.", m.httpRequests)
	counter("jasd_windows_streamed_total", "Simulated windows observed by the streaming layer.", m.windowsSeen)

	if m.haveRun {
		gauge("jasd_jops", "JOPS of the most recently completed run.", m.jops)
		gauge("jasd_cpi", "Mean steady-state CPI of the most recently completed run.", m.cpi)
	}

	fmt.Fprintf(w, "# HELP jasd_gc_pause_ms Stop-the-world GC pause per simulated window with a collection.\n# TYPE jasd_gc_pause_ms histogram\n")
	for i, ub := range gcPauseBucketsMS {
		fmt.Fprintf(w, "jasd_gc_pause_ms_bucket{le=\"%g\"} %d\n", ub, m.gcBucketCount[i])
	}
	fmt.Fprintf(w, "jasd_gc_pause_ms_bucket{le=\"+Inf\"} %d\n", m.gcCount)
	fmt.Fprintf(w, "jasd_gc_pause_ms_sum %g\n", m.gcSumMS)
	fmt.Fprintf(w, "jasd_gc_pause_ms_count %d\n", m.gcCount)
}
