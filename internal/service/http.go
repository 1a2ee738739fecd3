package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"jasworkload/internal/tools"
	"jasworkload/internal/workload"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/runs                    submit a JobSpec (?wait=1 blocks for the report)
//	GET    /v1/runs                    list jobs
//	GET    /v1/runs/{id}               job status
//	DELETE /v1/runs/{id}               release one submission reference; the
//	                                   last release aborts an unfinished run
//	GET  /v1/runs/{id}/report          finished report (?format=json|md, ?wait=1)
//	GET  /v1/runs/{id}/stream          live per-window NDJSON stream (?from=N resumes)
//	GET  /v1/runs/{id}/figures/{fig}   fig2..fig10, tprof, vmstat, locking,
//	                                   scalars, crosschecks, largepages
//	POST   /v1/sweeps                  submit a SweepSpec (base + axes grid)
//	GET    /v1/sweeps                  list sweeps
//	GET    /v1/sweeps/{id}             sweep status
//	DELETE /v1/sweeps/{id}             cancel a sweep, releasing its cells
//	GET  /v1/sweeps/{id}/stream        one NDJSON row per finished cell (?from=N resumes)
//	GET  /v1/sweeps/{id}/table         cross-cell comparison (markdown)
//	GET  /v1/workloads                 registered workload packs
//	GET  /metrics                      Prometheus text exposition
//	GET  /healthz                      liveness
//	     /debug/pprof/...              runtime profiling
//
// IDs of evicted jobs and sweeps answer 410 Gone until their tombstones
// age out.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/runs/{id}/figures/{fig}", s.handleFigure)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", s.handleSweepStream)
	mux.HandleFunc("GET /v1/sweeps/{id}/table", s.handleSweepTable)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.incHTTPRequests()
		mux.ServeHTTP(w, r)
	})
}

// writeJSON renders v with a trailing newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders an error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// boolParam interprets ?name=1|true.
func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}

// maxSpecBytes bounds a POSTed JobSpec or SweepSpec body. The largest
// legitimate body is an inline recorded arrival trace; a default
// full-scale ramp trace is ~8 MB. A variable only so tests can lower it.
var maxSpecBytes int64 = 32 << 20

// MaxSpecBytes returns the bound on a POSTed JobSpec or SweepSpec body. A
// front that buffers submissions reads them with the same bound, so it
// refuses what a replica would refuse and never forwards a cut body.
func MaxSpecBytes() int64 { return maxSpecBytes }

// decodeSpec strictly decodes a size-bounded JSON body into v: a
// misspelled field would otherwise silently take its default and submit
// (and possibly dedup onto) the wrong experiment. On failure it writes
// 413 for an oversized body, 400 otherwise, and returns false.
func decodeSpec(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad %s: %w", what, err))
		return false
	}
	return true
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeSpec(w, r, "JobSpec", &spec) {
		return
	}
	cfg, err := spec.RunConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, deduped, err := s.SubmitTimeout(cfg, time.Duration(spec.TimeoutS*float64(time.Second)))
	switch {
	case err == nil:
	case err == ErrQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(int(s.opts.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case err == ErrDraining:
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+job.ID)
	if boolParam(r, "wait") {
		// A blocking submit's reference lives only as long as the request:
		// it is consumed when the response is written, or — if the client
		// disconnects mid-wait — released then, so abandoned waits cannot
		// pin a job forever (the last to go aborts the run).
		defer func() { s.release(job, time.Now()) }()
		s.serveReport(w, r, job, true)
		return
	}
	code := http.StatusAccepted
	if terminal(job.State()) {
		code = http.StatusOK
	}
	st := job.Status(time.Now())
	writeJSON(w, code, struct {
		JobStatus
		Deduped bool `json:"deduped"`
	}{st, deduped})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	jobs := s.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(now)
	}
	writeJSON(w, http.StatusOK, out)
}

// job resolves {id}, or writes 410 for evicted jobs and 404 otherwise.
func (s *Service) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		if s.Evicted(id) {
			writeError(w, http.StatusGone, fmt.Errorf("job %q evicted; resubmit to re-run", id))
		} else {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		}
	}
	return j, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status(time.Now()))
	}
}

// handleCancel implements DELETE /v1/runs/{id}: release one submission
// reference, aborting the run if it was the last.
func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Cancel(id)
	switch {
	case errors.Is(err, ErrGone):
		writeError(w, http.StatusGone, fmt.Errorf("job %q evicted", id))
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.serveReport(w, r, j, boolParam(r, "wait"))
}

// serveReport writes a job's finished report, optionally blocking for it.
// Bodies are rendered once at job completion and served verbatim, so all
// clients of one job read identical bytes.
func (s *Service) serveReport(w http.ResponseWriter, r *http.Request, j *Job, wait bool) {
	if wait {
		if err := j.Wait(r.Context()); err != nil && err == r.Context().Err() {
			return // client went away
		}
	}
	switch j.State() {
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusAccepted, j.Status(time.Now()))
		return
	case StateFailed:
		writeError(w, http.StatusInternalServerError, j.Err())
		return
	case StateCanceled:
		// Cancellation never yields a partial report: the run was aborted
		// mid-window, so the only honest answer is the terminal state.
		writeError(w, http.StatusConflict, j.Err())
		return
	}
	jsonBody, mdBody, _ := j.Report()
	if r.URL.Query().Get("format") == "md" {
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		w.Write(mdBody)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(jsonBody)
}

// handleStream serves the live NDJSON window stream: replay of everything
// emitted so far, then new windows as the simulations produce them, then
// one terminal status line. ?from=N skips the first N events, so a client
// that lost its connection resumes where it left off instead of replaying
// the whole history.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", v))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := from; ; i++ {
		ev, ok := j.hub.next(r.Context(), i)
		if !ok {
			break
		}
		if enc.Encode(ev) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if r.Context().Err() != nil {
		return
	}
	st := j.Status(time.Now())
	enc.Encode(struct {
		Done  bool   `json:"done"`
		State State  `json:"state"`
		Error string `json:"error,omitempty"`
	}{true, st.State, st.Error})
}

func (s *Service) handleFigure(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if st := j.State(); st != StateDone {
		switch st {
		case StateFailed:
			writeError(w, http.StatusInternalServerError, j.Err())
		case StateCanceled:
			writeError(w, http.StatusConflict, j.Err())
		default:
			writeJSON(w, http.StatusAccepted, j.Status(time.Now()))
		}
		return
	}
	v, err := s.figure(j, r.PathValue("fig"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if f := r.URL.Query().Get("format"); f == "md" || f == "text" {
		str, ok := v.(fmt.Stringer)
		if !ok {
			writeError(w, http.StatusNotAcceptable, fmt.Errorf("figure has no text rendering"))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, str.String())
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// stringView adapts a plain string rendering to the figure interface.
type stringView string

func (s stringView) String() string { return string(s) }

// figure materializes one named view over the job's finished artifact.
// Everything except scalars and largepages is a pure view of the two
// cached runs; those two lazily execute their extra variant simulations on
// first request and are then cached like the rest.
func (s *Service) figure(j *Job, name string) (any, error) {
	art := j.Art
	switch name {
	case "fig2", "fig3", "fig4", "tprof", "vmstat":
		rl, err := art.RequestLevel()
		if err != nil {
			return nil, err
		}
		switch name {
		case "fig2":
			return rl.Fig2(), nil
		case "fig3":
			return rl.Fig3(), nil
		case "fig4":
			return rl.Fig4(), nil
		case "tprof":
			return rl.Fig4().Report, nil
		default:
			return stringView(tools.VMStat(rl.Windows())), nil
		}
	case "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "locking":
		d, err := art.Detail()
		if err != nil {
			return nil, err
		}
		switch name {
		case "fig5":
			return d.Fig5()
		case "fig6":
			return d.Fig6()
		case "fig7":
			return d.Fig7()
		case "fig8":
			return d.Fig8()
		case "fig9":
			return d.Fig9()
		case "fig10":
			return d.Fig10()
		default:
			return d.Locking()
		}
	case "scalars":
		return art.Scalars()
	case "crosschecks":
		return art.CrossChecks()
	case "largepages":
		return art.LargePages()
	}
	return nil, fmt.Errorf("unknown figure %q", name)
}

func (s *Service) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !decodeSpec(w, r, "SweepSpec", &spec) {
		return
	}
	base, err := spec.Base.RunConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sw, err := s.SubmitSweep(base, spec.Axes, time.Duration(spec.Base.TimeoutS*float64(time.Second)))
	switch {
	case err == nil:
	case err == ErrDraining:
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		// Everything else is a grid problem: unknown parameter, bad value,
		// over the cell cap.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.ID)
	writeJSON(w, http.StatusAccepted, sw.Status(time.Now()))
}

func (s *Service) handleSweepList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	sweeps := s.Sweeps()
	out := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.Status(now)
	}
	writeJSON(w, http.StatusOK, out)
}

// sweep resolves {id}, or writes 410 for evicted sweeps and 404 otherwise.
func (s *Service) sweep(w http.ResponseWriter, r *http.Request) (*SweepJob, bool) {
	id := r.PathValue("id")
	sw, ok := s.Sweep(id)
	if !ok {
		if s.Evicted(id) {
			writeError(w, http.StatusGone, fmt.Errorf("sweep %q evicted; resubmit to re-run", id))
		} else {
			writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", id))
		}
	}
	return sw, ok
}

func (s *Service) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.sweep(w, r); ok {
		writeJSON(w, http.StatusOK, sw.Status(time.Now()))
	}
}

func (s *Service) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.CancelSweep(id)
	switch {
	case errors.Is(err, ErrGone):
		writeError(w, http.StatusGone, fmt.Errorf("sweep %q evicted", id))
	case errors.Is(err, ErrUnknownJob):
		writeError(w, http.StatusNotFound, fmt.Errorf("no sweep %q", id))
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

// handleSweepStream serves one NDJSON row per finished cell — replay of
// rows already landed, then new rows in completion order, then one
// terminal status line. ?from=N resumes like the run stream.
func (s *Service) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweep(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad from %q", v))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for i := from; ; i++ {
		row, ok := sw.hub.next(r.Context(), i)
		if !ok {
			break
		}
		if enc.Encode(row) != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if r.Context().Err() != nil {
		return
	}
	st := sw.Status(time.Now())
	enc.Encode(struct {
		Done  bool   `json:"done"`
		State State  `json:"state"`
		Error string `json:"error,omitempty"`
	}{true, st.State, st.Error})
}

func (s *Service) handleSweepTable(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweep(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	fmt.Fprint(w, sw.Table())
}

// WorkloadInfo is one entry of the GET /v1/workloads listing.
type WorkloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Classes     int    `json:"classes"`
	Default     bool   `json:"default"`
}

// ListWorkloads describes every registered workload pack, sorted by name.
// jasd's /v1/workloads endpoint and jasrun -list-workloads both render it,
// so the daemon and the CLI can never disagree about what is available.
func ListWorkloads() []WorkloadInfo {
	names := workload.Names()
	out := make([]WorkloadInfo, 0, len(names))
	for _, name := range names {
		w, err := workload.Get(name)
		if err != nil {
			continue // unregistered between Names and Get: impossible today
		}
		out = append(out, WorkloadInfo{
			Name:        name,
			Description: w.Description(),
			Classes:     len(w.Classes()),
			Default:     name == workload.DefaultName,
		})
	}
	return out
}

func (s *Service) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListWorkloads())
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	depth, capacity := s.QueueDepth()
	resident, residentSweeps, hubBytes := s.ResidentStats()
	s.metrics.WriteTo(w, depth, capacity, resident, residentSweeps, hubBytes)
}
