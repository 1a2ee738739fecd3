package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"jasworkload/internal/core"
)

// layerMetricDef declares one per-layer metric of the traced run.
type layerMetricDef struct {
	name, unit, better string
}

// layerMetricDefs is every per-layer metric, in BENCHMARK.json order. A
// traced run reports each one; a layer the workload does not load reads 0.
var layerMetricDefs = []layerMetricDef{
	{"core.request_level_s", "s", "lower"},
	{"core.detail_s", "s", "lower"},
	{"core.crosschecks_s", "s", "lower"},
	{"core.assembly_s", "s", "lower"},
	{"core.render_s", "s", "lower"},
	{"core.views_s", "s", "lower"},
	{"core.window_ms_rl", "ms", "lower"},
	{"core.window_ms_detail", "ms", "lower"},
	{"core.sims_rl", "count", "lower"},
	{"core.sims_detail", "count", "lower"},
	{"core.sims_variant", "count", "lower"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"server.requests", "count", "higher"},
	{"server.emit_instr", "count", "higher"},
	{"server.execute_self_s", "s", "lower"},
	{"server.emit_s", "s", "lower"},
	{"server.emit_ns_per_instr", "ns/instr", "lower"},
	{"power4.feed_s", "s", "lower"},
	{"power4.drain_s", "s", "lower"},
	{"power4.ns_per_instr", "ns/instr", "lower"},
	{"power4.shards", "count", "higher"},
	{"power4.merge_stalls", "count", "lower"},
	{"power4.cycles", "count", "lower"},
	{"power4.inst_completed", "count", "higher"},
	{"hpm.tick_s", "s", "lower"},
	{"hpm.samples", "count", "higher"},
	{"jvm.gc_s", "s", "lower"},
	{"jvm.gcs", "count", "lower"},
	{"jvm.compactions", "count", "lower"},
	{"jvm.ms_per_gc", "ms", "lower"},
	{"jvm.alloc_mb", "MB", "lower"},
	{"db.txns", "count", "higher"},
	{"db.us_per_txn", "us", "lower"},
	{"db.touches", "count", "lower"},
	{"db.pool_hit_ratio", "ratio", "higher"},
	{"db.wal_appends", "count", "lower"},
	{"db.wal_flushes", "count", "lower"},
	{"driver.window_us", "us", "lower"},
	{"driver.arrivals", "count", "higher"},
	{"store.hits", "count", "higher"},
	{"store.misses", "count", "lower"},
	{"store.writes", "count", "lower"},
	{"store.bytes", "bytes", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"http.submit_ms", "ms", "lower"},
	{"http.report_ms", "ms", "lower"},
	{"http.figure_ms", "ms", "lower"},
	{"http.status_ms", "ms", "lower"},
	{"http.metrics_ms", "ms", "lower"},
	{"http.warm_get_ms", "ms", "lower"},
	{"http.warm_get_p99_ms", "ms", "lower"},
	{"service.queue_s", "s", "lower"},
	{"service.run_s", "s", "lower"},
	{"service.dedup_hits", "count", "higher"},
	{"service.rejected", "count", "lower"},
	{"share.driver", "ratio", "lower"},
	{"share.server", "ratio", "lower"},
	{"share.power4", "ratio", "lower"},
	{"share.hpm", "ratio", "lower"},
	{"share.jvm", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.replay_s", "s", "lower"},
	{"trace.replay_overhead", "ratio", "lower"},
	{"trace.op_s", "s", "lower"},
	{"trace.op_overhead", "ratio", "lower"},
}

const replayReq = "replay:"

// layerReplay runs the layer replay of each config with spans on and off,
// checks that spans do not perturb it, replays the pack's database script
// on its own, and fills the per-layer metrics and the layer-share table.
// With detail, a request-level replay of each config prices the server's
// work without trace emission, so emission is the difference.
func (b *bench) layerReplay(cfgs []core.RunConfig, detail bool) error {
	var tot replayStats
	var db dbStats
	var wallOff time.Duration
	perturbed := false
	baseTr := newTracer()
	for i, cfg := range cfgs {
		frac := 0.0
		if detail {
			frac = cfg.DetailFrac
		}
		req := fmt.Sprintf("%s%d", replayReq, i)
		st, err := replayConfig(cfg, frac, b.tr, req)
		if err != nil {
			return err
		}
		plain, err := replayConfig(cfg, frac, nil, req)
		if err != nil {
			return err
		}
		b.attempted++
		if st.fingerprint() != plain.fingerprint() {
			perturbed = true
			b.fail("replay %d perturbed by spans: %s traced vs %s untraced", i, st.fingerprint(), plain.fingerprint())
		}
		if detail {
			if _, err := replayConfig(cfg, 0, baseTr, req); err != nil {
				return err
			}
		}
		d, err := replayDB(cfg, st.classes, b.tr, req)
		if err != nil {
			return err
		}
		tot.add(st)
		wallOff += plain.wall
		db.txns += d.txns
		db.wall += d.wall
		db.touches += d.touches
		db.walAppends += d.walAppends
		db.walFlushes += d.walFlushes
		db.hitRatio += d.hitRatio / float64(len(cfgs))
	}

	var spans []Span
	for _, s := range b.tr.Spans() {
		if strings.HasPrefix(s.Req, replayReq) {
			spans = append(spans, s)
		}
	}
	agg := aggregateByName(spans)
	self, count := agg.selfSeconds, agg.count

	if tot.shardMode != "" {
		b.host.ShardMode, b.host.Shards = tot.shardMode, tot.shards
	}

	wall := agg.totalSeconds("replay")
	rows := []struct {
		layer string
		self  float64
	}{
		{"driver", self("driver.window")},
		{"server", self("server.execute", "server.emit_gc")},
		{"power4", self("power4.feed", "power4.drain")},
		{"hpm", self("hpm.tick")},
		{"jvm", self("jvm.gc", "jvm.compact")},
	}
	var covered float64
	for _, r := range rows {
		covered += r.self
		b.setLayer("share."+r.layer, "ratio", safeDiv(r.self, wall), 1)
	}
	execSelf := self("server.execute")
	emit := 0.0
	if detail {
		// The request-level replays executed the same requests without a
		// sink, so what the detail replays' Execute spent beyond them is
		// trace emission.
		emit = max(0, execSelf-aggregateByName(baseTr.Spans()).selfSeconds("server.execute"))
		emit += self("server.emit_gc")
	}
	p4 := self("power4.feed", "power4.drain")
	jvmSelf := self("jvm.gc", "jvm.compact")
	dbUS := safeDiv(db.wall.Seconds()*1e6, float64(db.txns))
	overhead := safeDiv(tot.wall.Seconds(), wallOff.Seconds()) - 1

	b.setLayer("server.requests", "count", float64(tot.requests), 1)
	b.setLayer("server.emit_instr", "count", float64(tot.emitInstr), 1)
	b.setLayer("server.execute_self_s", "s", execSelf, count("server.execute"))
	b.setLayer("server.emit_s", "s", emit, 1)
	b.setLayer("server.emit_ns_per_instr", "ns/instr", safeDiv(emit*1e9, float64(tot.emitInstr)), 1)
	b.setLayer("power4.feed_s", "s", self("power4.feed"), count("power4.feed"))
	b.setLayer("power4.drain_s", "s", self("power4.drain"), count("power4.drain"))
	b.setLayer("power4.ns_per_instr", "ns/instr", safeDiv(p4*1e9, float64(tot.emitInstr)), 1)
	b.setLayer("power4.shards", "count", float64(tot.shards), 1)
	b.setLayer("power4.merge_stalls", "count", float64(tot.stalls), 1)
	b.setLayer("power4.cycles", "count", float64(tot.cycles), 1)
	b.setLayer("power4.inst_completed", "count", float64(tot.inst), 1)
	b.setLayer("hpm.tick_s", "s", self("hpm.tick"), count("hpm.tick"))
	b.setLayer("hpm.samples", "count", float64(tot.samples), 1)
	b.setLayer("jvm.gc_s", "s", jvmSelf, count("jvm.gc")+count("jvm.compact"))
	b.setLayer("jvm.gcs", "count", float64(tot.gcs), 1)
	b.setLayer("jvm.compactions", "count", float64(tot.compacts), 1)
	b.setLayer("jvm.ms_per_gc", "ms", safeDiv(jvmSelf*1e3, float64(tot.gcs+tot.compacts)), 1)
	b.setLayer("jvm.alloc_mb", "MB", tot.allocMB, 1)
	b.setLayer("db.txns", "count", float64(db.txns), 1)
	b.setLayer("db.us_per_txn", "us", dbUS, db.txns)
	b.setLayer("db.touches", "count", float64(db.touches), 1)
	b.setLayer("db.pool_hit_ratio", "ratio", db.hitRatio, 1)
	b.setLayer("db.wal_appends", "count", float64(db.walAppends), 1)
	b.setLayer("db.wal_flushes", "count", float64(db.walFlushes), 1)
	b.setLayer("driver.window_us", "us", median(agg.durs("driver.window"))/1e3, count("driver.window"))
	b.setLayer("driver.arrivals", "count", float64(tot.arrivals), 1)
	b.setLayer("trace.coverage", "ratio", safeDiv(covered, wall), 1)
	b.setLayer("trace.replay_s", "s", wallOff.Seconds(), len(cfgs))
	b.setLayer("trace.replay_overhead", "ratio", overhead, len(cfgs))

	var t strings.Builder
	fmt.Fprintf(&t, "## Layer shares: %s, seed %d\n\n", b.name, b.seed)
	fmt.Fprintf(&t, "Layer replay of %d config(s), %s fidelity; traced replay wall %.3f s.\n\n",
		len(cfgs), map[bool]string{true: "detail", false: "request-level"}[detail], wall)
	fmt.Fprintf(&t, "| layer | self s | share | per unit | work |\n|---|---:|---:|---|---|\n")
	order := append(rows[:0:0], rows...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].self > order[j].self })
	for _, r := range order {
		var unit, work string
		switch r.layer {
		case "driver":
			unit = fmt.Sprintf("%.1f us/window", safeDiv(r.self*1e6, float64(tot.windows)))
			work = fmt.Sprintf("%d windows, %d arrivals", tot.windows, tot.arrivals)
		case "server":
			unit = fmt.Sprintf("%.1f us/request", safeDiv(r.self*1e6, float64(tot.requests)))
			work = fmt.Sprintf("%d requests, %d instr emitted", tot.requests, tot.emitInstr)
		case "power4":
			unit = fmt.Sprintf("%.1f ns/instr", safeDiv(r.self*1e9, float64(tot.emitInstr)))
			work = fmt.Sprintf("%s, %d shards, feed %.3f s + drain %.3f s", orDash(tot.shardMode), tot.shards, self("power4.feed"), self("power4.drain"))
		case "hpm":
			unit = fmt.Sprintf("%.1f us/window", safeDiv(r.self*1e6, float64(count("hpm.tick"))))
			work = fmt.Sprintf("%d samples", tot.samples)
		case "jvm":
			unit = fmt.Sprintf("%.2f ms/GC", safeDiv(r.self*1e3, float64(tot.gcs+tot.compacts)))
			work = fmt.Sprintf("%d GCs, %d compactions, %.0f MB allocated", tot.gcs, tot.compacts, tot.allocMB)
		}
		fmt.Fprintf(&t, "| %s | %.3f | %.1f%% | %s | %s |\n", r.layer, r.self, 100*safeDiv(r.self, wall), unit, work)
	}
	fmt.Fprintf(&t, "| (uncovered replay loop) | %.3f | %.1f%% | | |\n", self("replay"), 100*safeDiv(self("replay"), wall))
	if detail {
		fmt.Fprintf(&t, "| server: trace emission (vs a request-level replay) | %.3f | %.1f%% | %.1f ns/instr | %d instr |\n",
			emit, 100*safeDiv(emit, wall), safeDiv(emit*1e9, float64(tot.emitInstr)), tot.emitInstr)
	}
	fmt.Fprintf(&t, "| db, replayed alone (inside server above) | %.3f | %.1f%% | %.1f us/txn | %d txns, %d touches, pool hit %.3f, WAL %d appends / %d flushes |\n\n",
		db.wall.Seconds(), 100*safeDiv(db.wall.Seconds(), wall), dbUS, db.txns, db.touches, db.hitRatio, db.walAppends, db.walFlushes)
	fmt.Fprintf(&t, "- coverage: %.1f%% of the traced replay wall is layer self time\n", 100*safeDiv(covered, wall))
	fmt.Fprintf(&t, "- tracing overhead: replay %+.1f%% (%.3f s traced vs %.3f s untraced)\n", 100*overhead, tot.wall.Seconds(), wallOff.Seconds())
	fmt.Fprintf(&t, "- no perturbation: power4.cycles %d and power4.inst_completed %d identical with spans on and off: %v\n", tot.cycles, tot.inst, !perturbed)
	b.table = t.String()
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setCoreLayers sets the core.* timings and the workload-level tracing
// overhead from the spans of the traced repetitions, whose wall times are
// tracedWall. Phase and window metrics are medians over their spans.
func (b *bench) setCoreLayers(tracedWall []float64) {
	agg := aggregateByName(b.tr.Spans())
	for _, p := range []struct {
		metric, span, unit string
		scale              float64
	}{
		{"core.request_level_s", "core.request_level", "s", 1e9},
		{"core.detail_s", "core.detail", "s", 1e9},
		{"core.crosschecks_s", "core.crosschecks", "s", 1e9},
		{"core.assembly_s", "core.assembly", "s", 1e9},
		{"core.render_s", "core.render", "s", 1e9},
		{"core.window_ms_rl", "core.window.request-level", "ms", 1e6},
		{"core.window_ms_detail", "core.window.detail", "ms", 1e6},
	} {
		d := agg.durs(p.span)
		b.setLayer(p.metric, p.unit, median(d)/p.scale, len(d))
	}
	b.setLayer("core.views_s", "s", safeDiv(agg.totalSeconds("core.views"), float64(len(tracedWall))), len(tracedWall))
	b.setLayer("trace.op_s", "s", median(tracedWall), len(tracedWall))
	b.setLayer("trace.op_overhead", "ratio", safeDiv(median(tracedWall), median(b.opWall))-1, len(tracedWall))
}
