package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/service"
)

// serve-mixed runs jasd in process: service.New(...).Handler() on a
// loopback listener over a persistent artifact store. Two clients run a
// closed loop, because jasd callers wait for their replies: the writer
// submits cold short jobs one after another with ?wait=1, and the reader
// loops over the finished jobs fetching reports, figures, status and
// /metrics. A restart leg then stops the service, flushes the run cache,
// starts a new service over the same store and re-submits every config,
// which must load from the store with zero simulations.

// rampArrival is the loadgen spec every other job carries, so the loadgen
// source is on the simulated path. Its plateaus (0.5x, 1x, 1.5x for 20 s
// each) average the steady rate, so ramp and steady jobs cost about the
// same and the median cold latency does not flip between two populations.
const rampArrival = `{"version":1,"cohorts":[{"name":"ramp","process":{"kind":"ramp","start_factor":0.5,"target_factor":1.5,"steps":3,"step_ms":20000}}]}`

// minColdJobs is the least number of cold jobs a run submits, and
// secondsPerColdJob sizes the quota from --seconds: a cold job takes about
// 3 s on a 2-vCPU host while the reader runs beside it.
const (
	minColdJobs       = 3
	secondsPerColdJob = 3
)

// jobSpec is the k-th cold job of a run: a short quick-scale job with a
// seed derived from the workload seed.
func jobSpec(seed int64, k int) service.JobSpec {
	s := service.JobSpec{Seed: seed*1000 + int64(k) + 1, DurationMS: 60000, RampMS: 20000}
	if k%2 == 1 {
		s.Arrival = json.RawMessage(rampArrival)
	}
	return s
}

// jasd is one running in-process service.
type jasd struct {
	dir   string
	store *core.ArtifactStore
	svc   *service.Service
	srv   *http.Server
	base  string
	done  chan struct{}
}

func startJasd(dir string) (*jasd, error) {
	st, err := core.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	core.SetStore(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		core.SetStore(nil)
		return nil, err
	}
	d := &jasd{dir: dir, store: st, svc: service.New(service.Options{}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	d.srv = &http.Server{Handler: d.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// stop shuts the HTTP server and the service down and uninstalls the
// store; it returns once the serving goroutine has exited.
func (d *jasd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.done
	if serr := d.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	core.SetStore(nil)
	return err
}

// client is the load generator's HTTP side: it times every request,
// records a span for it, and keeps per-route latencies.
type client struct {
	hc *http.Client
	tr *Tracer

	mu  sync.Mutex
	lat map[string][]float64 // route -> seconds
}

func newClient(tr *Tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		tr:  tr,
		lat: map[string][]float64{},
	}
}

// do sends one request and reads the whole reply; the latency runs to the
// last byte of the body.
func (c *client) do(method, url, route, req string, parent int32, body []byte) (int, []byte, float64, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	c.tr.Add("http."+route, parent, req, t0, t1)
	sec := t1.Sub(t0).Seconds()
	c.mu.Lock()
	c.lat[route] = append(c.lat[route], sec)
	c.mu.Unlock()
	return resp.StatusCode, out, sec, err
}

func (c *client) latencies(route string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.lat[route]...)
}

// opCounter counts operations and failures from several goroutines.
type opCounter struct {
	mu        sync.Mutex
	attempted int
	failures  []string
	rejected  int
}

// check counts one operation, failing it on a transport error, a status
// other than want, or a body check that did not hold.
func (o *opCounter) check(what string, code, want int, err error, bodyOK bool) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if code == http.StatusTooManyRequests {
		o.rejected++
	}
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case code != want:
		why = fmt.Sprintf("status %d, want %d", code, want)
	case !bodyOK:
		why = "body differs"
	default:
		return true
	}
	o.failures = append(o.failures, what+": "+why)
	return false
}

type coldJob struct {
	spec []byte
	id   string
	json []byte
	md   []byte
}

func runServeMixed(b *bench) error {
	tmpRoot := filepath.Join(outDir, "tmp")
	var d *jasd
	var cl *client
	err := b.setup(func(last bool) error {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(tmpRoot, "store-")
		if err != nil {
			return err
		}
		core.Flush()
		s, err := startJasd(dir)
		if err != nil {
			return err
		}
		c := newClient(b.tr)
		code, _, _, err := c.do("GET", s.base+"/healthz", "healthz", "", 0, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", code)
		}
		if err != nil || !last {
			s.stop()
			os.RemoveAll(dir)
			return err
		}
		d, cl = s, c
		return nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(d.dir)

	ops := &opCounter{}
	var (
		mu       sync.Mutex
		jobs     []*coldJob
		queueS   []float64
		runS     []float64
		stop     atomic.Bool
		readerWG sync.WaitGroup
	)
	sims0 := core.SimCounts()
	hits0, misses0 := core.CacheStats()
	cpu0 := processCPU()

	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		reader(d.base, cl, ops, &stop, func() []*coldJob {
			mu.Lock()
			defer mu.Unlock()
			return jobs
		})
	}()

	// The cold phase is a fixed quota of jobs rather than a deadline, so
	// the number of resident jobs (and with it peak RSS) does not depend on
	// host speed; the quota is sized to last about --seconds here.
	quota := max(minColdJobs, int(b.seconds/secondsPerColdJob))
	for k := 0; k < quota; k++ {
		spec, err := json.Marshal(jobSpec(b.seed, k))
		if err != nil {
			return err
		}
		req := fmt.Sprintf("job-%d", k)
		span := b.tr.Begin("serve.job", 0, req)
		code, body, sec, err := cl.do("POST", d.base+"/v1/runs?wait=1", "submit", req, span, spec)
		var rep struct {
			ID string `json:"id"`
		}
		ok := ops.check("cold submit "+req, code, http.StatusOK, err, json.Unmarshal(body, &rep) == nil && rep.ID != "")
		if ok {
			b.opWall = append(b.opWall, sec)
			code, sbody, _, err := cl.do("GET", d.base+"/v1/runs/"+rep.ID, "status", req, span, nil)
			var st service.JobStatus
			if ops.check("status "+req, code, http.StatusOK, err, json.Unmarshal(sbody, &st) == nil) {
				runS = append(runS, st.RunningSec)
				queueS = append(queueS, max(0, sec-st.RunningSec))
			}
			code, md, _, err := cl.do("GET", d.base+"/v1/runs/"+rep.ID+"/report?format=md", "report", req, span, nil)
			if ops.check("report md "+req, code, http.StatusOK, err, len(md) > 0) {
				mu.Lock()
				jobs = append(jobs, &coldJob{spec: spec, id: rep.ID, json: body, md: md})
				mu.Unlock()
			}
		}
		b.tr.End(span)
	}
	stop.Store(true)
	readerWG.Wait()
	cpuCold := processCPU() - cpu0
	rl, det, variant := simDelta(sims0)
	hits1, misses1 := core.CacheStats()
	k := float64(len(jobs))

	_, mbody, _, merr := cl.do("GET", d.base+"/metrics", "metrics", "", 0, nil)
	storeCold := d.store.Stats()
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop service: %w", err)
	}

	// Restart leg: a new service over the same store must serve every
	// config from the store, byte-identically and without simulating.
	core.Flush()
	d2, err := startJasd(d.dir)
	if err != nil {
		return err
	}
	simsR := core.SimCounts()
	for i, j := range jobs {
		req := fmt.Sprintf("job-%d", i)
		code, body, _, err := cl.do("POST", d2.base+"/v1/runs?wait=1", "hydrate", req, 0, j.spec)
		ops.check("restart submit "+req, code, http.StatusOK, err, bytes.Equal(body, j.json))
		code, md, _, err := cl.do("GET", d2.base+"/v1/runs/"+j.id+"/report?format=md", "hydrate_md", req, 0, nil)
		ops.check("restart report md "+req, code, http.StatusOK, err, bytes.Equal(md, j.md))
	}
	rrl, rdet, rvar := simDelta(simsR)
	ops.check(fmt.Sprintf("restart leg ran %d request-level, %d detail and %d variant simulations, want none", rrl, rdet, rvar),
		0, 0, nil, rrl == 0 && rdet == 0 && rvar == 0)
	storeWarm := d2.store.Stats()
	if err := d2.stop(); err != nil {
		return fmt.Errorf("stop restarted service: %w", err)
	}

	b.attempted += ops.attempted
	for _, f := range ops.failures {
		b.fail("%s", f)
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no cold job finished")
	}
	b.opCPU = []float64{cpuCold / k}

	warm := cl.latencies("warm")
	toMS := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e3
		}
		return out
	}
	hydrate := toMS(cl.latencies("hydrate"))
	b.setNamed("cold_report_s", "s", b.opWall)
	b.setNamed("warm_get_ms", "ms", toMS(warm))
	_, p99, _ := tailPercentile(toMS(warm), 10)
	b.named["warm_get_p99_ms"] = metric{Value: p99, Unit: "ms", N: len(warm)}
	b.setNamed("hydrate_report_ms", "ms", hydrate)
	if b.tr == nil {
		return nil
	}

	setMS := func(name, route string) {
		xs := toMS(cl.latencies(route))
		b.setLayer(name, "ms", median(xs), len(xs))
	}
	setMS("http.submit_ms", "submit")
	setMS("http.report_ms", "report")
	setMS("http.figure_ms", "figure")
	setMS("http.status_ms", "status")
	setMS("http.metrics_ms", "metrics")
	b.layer["http.warm_get_ms"] = b.named["warm_get_ms"]
	b.layer["http.warm_get_p99_ms"] = b.named["warm_get_p99_ms"]
	b.setLayer("store.load_ms", "ms", median(hydrate), len(hydrate))
	b.setLayer("service.queue_s", "s", median(queueS), len(queueS))
	b.setLayer("service.run_s", "s", median(runS), len(runS))
	if merr == nil {
		b.setLayer("service.dedup_hits", "count", promValue(mbody, "jasd_dedup_hits_total"), 1)
		b.setLayer("service.rejected", "count", promValue(mbody, `jasd_jobs_total{state="rejected"}`), 1)
	}
	var hits, misses uint64
	for _, kind := range storeWarm.Kinds() {
		hits += storeWarm.Hits[kind]
		misses += storeCold.Misses[kind]
	}
	b.setLayer("store.hits", "count", float64(hits), 1)
	b.setLayer("store.misses", "count", float64(misses), 1)
	b.setLayer("store.writes", "count", float64(storeCold.Writes), 1)
	b.setLayer("store.bytes", "bytes", float64(storeWarm.Bytes), 1)
	b.setLayer("core.sims_rl", "count", float64(rl)/k, len(jobs))
	b.setLayer("core.sims_detail", "count", float64(det)/k, len(jobs))
	b.setLayer("core.sims_variant", "count", float64(variant)/k, len(jobs))
	b.setLayer("core.cache_hit_ratio", "ratio", safeDiv(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)), 1)
	b.setLayer("trace.op_s", "s", median(b.opWall), len(b.opWall))

	// The layer replay covers the first steady and the first ramp job.
	var cfgs []core.RunConfig
	for k := 0; k < 2; k++ {
		cfg, err := jobSpec(b.seed, k).RunConfig()
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg.Canonical())
	}
	return b.layerReplay(cfgs, true)
}

// reader is the second client: until stop, it walks the finished jobs and
// fetches each one's reports (markdown and JSON), three figures, its status
// and /metrics, checking every body against what the job served first.
func reader(base string, cl *client, ops *opCounter, stop *atomic.Bool, finished func() []*coldJob) {
	figures := map[string][]byte{}
	for i := 0; !stop.Load(); i++ {
		jobs := finished()
		if len(jobs) == 0 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		j := jobs[i%len(jobs)]
		get := func(path, route string, check func([]byte) bool) {
			code, body, sec, err := cl.do("GET", base+path, route, j.id, 0, nil)
			cl.mu.Lock()
			cl.lat["warm"] = append(cl.lat["warm"], sec)
			cl.mu.Unlock()
			ops.check("GET "+path, code, http.StatusOK, err, check(body))
		}
		anyBody := func([]byte) bool { return true }
		get("/v1/runs/"+j.id+"/report?format=md", "report", func(b []byte) bool { return bytes.Equal(b, j.md) })
		get("/v1/runs/"+j.id+"/report", "report", func(b []byte) bool { return bytes.Equal(b, j.json) })
		for _, fig := range []string{"fig5", "fig9", "fig10"} {
			key := j.id + "/" + fig
			get("/v1/runs/"+j.id+"/figures/"+fig, "figure", func(b []byte) bool {
				if prev, ok := figures[key]; ok {
					return bytes.Equal(prev, b)
				}
				figures[key] = b
				return true
			})
		}
		get("/v1/runs/"+j.id, "status", anyBody)
		get("/metrics", "metrics", anyBody)
	}
}

// promValue reads one sample from Prometheus text exposition.
func promValue(body []byte, series string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
