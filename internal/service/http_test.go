package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jasworkload/internal/core"
	"jasworkload/internal/sim"
)

// e2eSpec is a reduced quick-scale run (10 simulated seconds of steady
// state) so the end-to-end tests pay for real simulations only once.
const e2eSpec = `{"scale":"quick","seed":7,"duration_ms":12000,"ramp_ms":2000}`

// TestE2EDeterminismGuard is the acceptance gate for the serving layer:
// eight concurrent clients submit the same config and block for the
// report. All eight must read byte-identical JSON bodies, and the whole
// episode must execute exactly one request-level and one detail
// simulation (plus the report's two cross-check variants).
func TestE2EDeterminismGuard(t *testing.T) {
	core.Flush()
	core.ResetSimCounts()
	s := New(Options{Workers: 4, QueueDepth: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const clients = 8
	bodies := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/runs?wait=1", "application/json",
				strings.NewReader(e2eSpec))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("client %d: status %s", i, resp.Status)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	var rep struct {
		ID    string `json:"id"`
		Rows  []any  `json:"rows"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal(bodies[0], &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Total == 0 || len(rep.Rows) != rep.Total {
		t.Fatalf("report empty or inconsistent: %+v", rep)
	}

	sims := core.SimCounts()
	if sims["request-level"] != 1 || sims["detail"] != 1 {
		t.Fatalf("sim counts = %v, want exactly 1 request-level and 1 detail", sims)
	}

	// The /metrics surface must reflect the episode: dedup absorbed 7 of
	// the 8 submissions, one job completed, nothing rejected.
	metrics := fetch(t, srv.URL+"/metrics")
	for _, want := range []string{
		"jasd_dedup_hits_total 7",
		"jasd_jobs_total{state=\"done\"} 1",
		"jasd_jobs_total{state=\"rejected\"} 0",
		"jasd_queue_depth 0",
		"jasd_jobs_inflight 0",
		"jasd_sims_total{kind=\"request-level\"} 1",
		"jasd_sims_total{kind=\"detail\"} 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	// Service-level dedup absorbs the duplicate submissions before they
	// reach the run store, so artifact-cache hits come from the pipeline's
	// own consumers (BuildReport re-resolving the shared artifact): the
	// counter must be nonzero but need not scale with client count.
	var hits uint64
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "jasd_artifact_cache_hits_total") {
			fmt.Sscanf(line, "jasd_artifact_cache_hits_total %d", &hits)
		}
	}
	if hits == 0 {
		t.Fatal("artifact cache hits = 0, want nonzero")
	}

	// The markdown rendering is served verbatim too, and identically.
	id := rep.ID
	md1 := fetch(t, srv.URL+"/v1/runs/"+id+"/report?format=md")
	md2 := fetch(t, srv.URL+"/v1/runs/"+id+"/report?format=md")
	if md1 != md2 || !strings.HasPrefix(md1, "| ID | Artifact |") {
		t.Fatalf("markdown report unstable or malformed:\n%s", md1)
	}

	// Figures are served as JSON views of the same cached runs.
	var f2 struct {
		JOPS float64 `json:"JOPS"`
	}
	if err := json.Unmarshal([]byte(fetch(t, srv.URL+"/v1/runs/"+id+"/figures/fig2")), &f2); err != nil {
		t.Fatal(err)
	}
	if f2.JOPS <= 0 {
		t.Fatalf("fig2 JOPS = %v", f2.JOPS)
	}
	vmstat := fetch(t, srv.URL+"/v1/runs/"+id+"/figures/vmstat?format=md")
	if !strings.Contains(vmstat, "us  sy  id") {
		t.Fatalf("vmstat rendering malformed:\n%s", vmstat)
	}

	// The stream replays every window of the finished run: 12 windows per
	// fidelity (12 s at 1 s windows) plus the terminal status line.
	lines := streamLines(t, srv.URL+"/v1/runs/"+id+"/stream")
	perKind := map[string]int{}
	for _, ln := range lines[:len(lines)-1] {
		var ev struct {
			Kind   string `json:"kind"`
			Window struct {
				Index int `json:"Index"`
			} `json:"window"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", ln, err)
		}
		if ev.Window.Index != perKind[ev.Kind] {
			t.Fatalf("%s windows out of order: got %d, want %d", ev.Kind, ev.Window.Index, perKind[ev.Kind])
		}
		perKind[ev.Kind]++
	}
	if perKind["request-level"] != 12 || perKind["detail"] != 12 {
		t.Fatalf("streamed windows per kind = %v, want 12 each", perKind)
	}
	var fin struct {
		Done  bool  `json:"done"`
		State State `json:"state"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fin); err != nil || !fin.Done || fin.State != StateDone {
		t.Fatalf("terminal stream line wrong: %q (err %v)", lines[len(lines)-1], err)
	}

	// The workload pack is part of the job identity. An explicit
	// default-pack spec coalesces onto the job above without running
	// anything new; the other shipped packs each get their own job and
	// their own pair of simulations, and their reports render end-to-end.
	submit := func(spec string) (string, bool) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit %s: status %s\n%s", spec, resp.Status, b)
		}
		var rep struct {
			ID    string `json:"id"`
			Total int    `json:"total"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep.ID, rep.Total > 0
	}
	withWorkload := func(name string) string {
		return fmt.Sprintf(`{"scale":"quick","seed":7,"duration_ms":12000,"ramp_ms":2000,"workload":%q}`, name)
	}
	if got, _ := submit(withWorkload("jas2004")); got != id {
		t.Fatalf("explicit jas2004 spec got job %s, want dedup onto %s", got, id)
	}
	if sims := core.SimCounts(); sims["request-level"] != 1 || sims["detail"] != 1 {
		t.Fatalf("explicit default-pack spec re-simulated: %v", sims)
	}
	ids := map[string]string{"jas2004": id}
	for _, pack := range []string{"dataanalytics", "virtweb"} {
		packID, nonEmpty := submit(withWorkload(pack))
		if !nonEmpty {
			t.Fatalf("%s report empty", pack)
		}
		for other, otherID := range ids {
			if packID == otherID {
				t.Fatalf("%s and %s share job ID %s", pack, other, packID)
			}
		}
		ids[pack] = packID
	}
	if sims := core.SimCounts(); sims["request-level"] != 3 || sims["detail"] != 3 {
		t.Fatalf("sim counts after 3 packs = %v, want 3 request-level and 3 detail", sims)
	}

	// The arrival spec is part of the job identity too: a burst-shaped
	// submission of the otherwise-identical base config gets its own job
	// and its own pair of simulations (distinct load shapes never
	// coalesce), while resubmitting the same shape — even spelled with
	// its defaults explicit — dedups onto the same job at zero extra
	// simulations. That is the per-distinct-spec sim budget: one
	// request-level + one detail per (config, load shape).
	burstSpec := `{"scale":"quick","seed":7,"duration_ms":12000,"ramp_ms":2000,` +
		`"arrival":{"version":1,"cohorts":[{"name":"surge","process":{"kind":"burst","on_ms":2000,"off_ms":1000,"factor":1.4}}]}}`
	burstID, nonEmpty := submit(burstSpec)
	if !nonEmpty {
		t.Fatal("burst-arrival report empty")
	}
	if burstID == id {
		t.Fatalf("burst arrival coalesced onto the steady job %s", id)
	}
	if sims := core.SimCounts(); sims["request-level"] != 4 || sims["detail"] != 4 {
		t.Fatalf("sim counts after burst arrival = %v, want 4 request-level and 4 detail", sims)
	}
	explicit := `{"scale":"quick","seed":7,"duration_ms":12000,"ramp_ms":2000,` +
		`"arrival":{"version":1,"cohorts":[{"name":"surge","seed_lane":1,"process":{"kind":"burst","on_ms":2000,"off_ms":1000,"factor":1.4}}]}}`
	if got, _ := submit(explicit); got != burstID {
		t.Fatalf("canonically-equal arrival spec got job %s, want dedup onto %s", got, burstID)
	}
	if sims := core.SimCounts(); sims["request-level"] != 4 || sims["detail"] != 4 {
		t.Fatalf("equal-shape respelling re-simulated: %v", sims)
	}
	var burstStatus struct {
		Arrival string `json:"arrival"`
	}
	if err := json.Unmarshal([]byte(fetch(t, srv.URL+"/v1/runs/"+burstID)), &burstStatus); err != nil {
		t.Fatal(err)
	}
	if burstStatus.Arrival != "1 cohort (burst)" {
		t.Fatalf("status arrival summary = %q, want %q", burstStatus.Arrival, "1 cohort (burst)")
	}
}

// TestSubmitStrictDecoding pins the strict JobSpec wire contract: unknown
// fields are a 400 with the offending name in the message, not a silently
// defaulted (and deduplicated) wrong experiment.
func TestSubmitStrictDecoding(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"scale":"quick","sede":7}`,         // typo'd field
		`{"scale":"quick","workloads":"x"}`,  // near-miss plural
		`{"scale":"quick","detailfrac":0.5}`, // missing underscore
	} {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s: status %s, want 400", body, resp.Status)
		}
		if !strings.Contains(string(b), "unknown field") {
			t.Fatalf("submit %s: error does not name the unknown field:\n%s", body, b)
		}
	}

	// An unregistered workload is rejected before anything is enqueued,
	// and the message lists what is available.
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scale":"quick","workload":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload: status %s, want 400", resp.Status)
	}
	if !strings.Contains(string(b), "unknown workload") || !strings.Contains(string(b), "jas2004") {
		t.Fatalf("unknown-workload error unhelpful:\n%s", b)
	}
}

// TestSubmitArrivalValidation pins the 400 contract for arrival specs:
// malformed spec JSON, process parameters out of range, class names that
// don't exist in the selected pack, and traces too short for the run all
// fail at submit time — never as an enqueued job that dies later.
func TestSubmitArrivalValidation(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cases := []struct{ name, body, wantErr string }{
		{"malformed spec", `{"scale":"quick","arrival":{"version":1}}`, "cohorts or trace"},
		{"unknown spec field", `{"scale":"quick","arrival":{"version":1,"cohorts":[{"name":"a","typo":1}]}}`, "unknown field"},
		{"bad burst factor", `{"scale":"quick","arrival":{"version":1,"cohorts":[{"name":"a","process":{"kind":"burst","on_ms":500,"off_ms":500,"factor":9}}]}}`, "mean-preserving"},
		{"unknown mix class", `{"scale":"quick","arrival":{"version":1,"cohorts":[{"name":"a","mix":{"Checkout":2}}]}}`, "unknown class"},
		{"trace class out of range", `{"scale":"quick","duration_ms":2000,"ramp_ms":1000,"arrival":{"version":1,"trace":{"window_ms":1000,"windows":[[[63,1]],[[0,2]]]}}}`, "out of range"},
		{"short trace", `{"scale":"quick","duration_ms":5000,"ramp_ms":1000,"arrival":{"version":1,"trace":{"window_ms":1000,"windows":[[],[]]}}}`, "needs 5"},
		{"wrong trace window size", `{"scale":"quick","duration_ms":2000,"ramp_ms":1000,"arrival":{"version":1,"trace":{"window_ms":500,"windows":[[],[],[],[]]}}}`, "1000 ms windows"},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %s, want 400\n%s", tc.name, resp.Status, b)
		}
		if !strings.Contains(string(b), tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, b, tc.wantErr)
		}
	}
}

// TestWorkloadsEndpoint pins GET /v1/workloads against the registry.
func TestWorkloadsEndpoint(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var infos []WorkloadInfo
	if err := json.Unmarshal([]byte(fetch(t, srv.URL+"/v1/workloads")), &infos); err != nil {
		t.Fatal(err)
	}
	byName := map[string]WorkloadInfo{}
	for _, wi := range infos {
		byName[wi.Name] = wi
	}
	for _, want := range []string{"jas2004", "trade6", "dataanalytics", "virtweb"} {
		wi, ok := byName[want]
		if !ok {
			t.Fatalf("workload %q missing from listing: %+v", want, infos)
		}
		if wi.Description == "" || wi.Classes == 0 {
			t.Fatalf("workload %q listed without description/classes: %+v", want, wi)
		}
		if wi.Default != (want == "jas2004") {
			t.Fatalf("workload %q default flag wrong: %+v", want, wi)
		}
	}
}

// TestHTTPSubmitStatusLifecycle covers the non-blocking submit path.
func TestHTTPSubmitStatusLifecycle(t *testing.T) {
	s, started, release := blockingService(t, 1, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scale":"quick","seed":901}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %s, want 202", resp.Status)
	}
	loc := resp.Header.Get("Location")
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc != "/v1/runs/"+st.ID {
		t.Fatalf("Location %q does not match id %q", loc, st.ID)
	}
	waitStart(t, started)

	// Report before completion: 202 with status body.
	resp, err = http.Get(srv.URL + loc + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("early report status = %s, want 202", resp.Status)
	}
	close(release)

	// Blocking report now returns the body the runner rendered.
	if got := fetch(t, srv.URL+loc+"/report?wait=1"); got != "{}\n" {
		t.Fatalf("report body = %q", got)
	}
	if got := fetch(t, srv.URL+loc); !strings.Contains(got, `"state": "done"`) {
		t.Fatalf("status body = %s", got)
	}

	// Unknown job and unknown figure 404.
	for _, path := range []string{"/v1/runs/nope", "/v1/runs/" + st.ID + "/figures/fig99"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status = %s, want 404", path, resp.Status)
		}
	}
}

// TestE2ECancellationRace is the cancellation acceptance gate, on real
// simulations: eight clients share one deduplicated long run; seven
// cancel and the run keeps going, the eighth cancels and the run aborts
// mid-window — after which not a single further window executes.
func TestE2ECancellationRace(t *testing.T) {
	core.Flush()
	core.ResetSimCounts()
	s := New(Options{Workers: 4, QueueDepth: 8})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// 600 simulated seconds: far more than the test will ever wait, so a
	// cancellation that fails to abort shows up as the timeout below, not
	// as a run that quietly finished first.
	const spec = `{"scale":"quick","seed":8,"duration_ms":600000,"ramp_ms":2000}`
	var id string
	for i := 0; i < 8; i++ {
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID      string `json:"id"`
			Deduped bool   `json:"deduped"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if i == 0 {
			id = st.ID
		} else if !st.Deduped || st.ID != id {
			t.Fatalf("submission %d not deduped onto %s: %+v", i, id, st)
		}
	}

	status := func() JobStatus {
		t.Helper()
		var st JobStatus
		if err := json.Unmarshal([]byte(fetch(t, srv.URL+"/v1/runs/"+id)), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitFor := func(what string, ok func(JobStatus) bool) JobStatus {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			st := status()
			if ok(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; status %+v", what, st)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	del := func() *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	waitFor("first window", func(st JobStatus) bool { return st.WindowsSoFar >= 1 })
	for i := 0; i < 7; i++ {
		if resp := del(); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %d status = %s", i, resp.Status)
		}
	}
	if st := status(); st.State != StateRunning && st.State != StateQueued {
		t.Fatalf("job aborted with a subscriber still attached: %+v", st)
	}
	if resp := del(); resp.StatusCode != http.StatusOK {
		t.Fatalf("last cancel status = %s", resp.Status)
	}
	st := waitFor("cancellation", func(st JobStatus) bool { return st.State == StateCanceled })
	if st.WindowsSoFar >= 600 {
		t.Fatalf("run completed instead of aborting: %+v", st)
	}

	// Abort means abort: once terminal, the window count never moves again.
	frozen := st.WindowsSoFar
	time.Sleep(300 * time.Millisecond)
	if got := status().WindowsSoFar; got != frozen {
		t.Fatalf("windows kept executing after cancellation: %d -> %d", frozen, got)
	}

	// No partial report — the terminal state is the only output.
	resp, err := http.Get(srv.URL + "/v1/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report of canceled run = %s, want 409", resp.Status)
	}

	metrics := fetch(t, srv.URL+"/metrics")
	for _, want := range []string{
		"jasd_jobs_cancelled_total 1",
		"jasd_jobs_total{state=\"canceled\"} 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestHTTPStreamResume covers the reconnect path: ?from=N skips the
// already-seen prefix instead of replaying from event zero.
func TestHTTPStreamResume(t *testing.T) {
	s, started, release := blockingService(t, 1, 2)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"scale":"quick","seed":921}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j := waitStart(t, started)
	for i := 0; i < 3; i++ {
		j.hub.emit(WindowEvent{Kind: "request-level", Window: sim.WindowStats{Index: i}})
	}
	close(release)
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	lines := streamLines(t, srv.URL+"/v1/runs/"+j.ID+"/stream?from=2")
	if len(lines) != 2 {
		t.Fatalf("resumed stream = %d lines, want event 2 + terminal:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	var ev struct {
		Window struct {
			Index int `json:"Index"`
		} `json:"window"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil || ev.Window.Index != 2 {
		t.Fatalf("resumed stream started at %d, want 2 (err %v)", ev.Window.Index, err)
	}

	resp, err = http.Get(srv.URL + "/v1/runs/" + j.ID + "/stream?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative from = %s, want 400", resp.Status)
	}
}

// TestHTTPEvictionGone covers retention over HTTP: once the done-ring TTL
// passes, the job's endpoints answer 410 Gone rather than 404.
func TestHTTPEvictionGone(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 2, DoneTTL: time.Millisecond})
	s.runReport = func(ctx context.Context, j *Job) ([]byte, []byte, error) {
		return []byte("{}\n"), nil, nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp0, err := http.Post(srv.URL+"/v1/runs?wait=1", "application/json",
		strings.NewReader(`{"scale":"quick","seed":931}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp0.Body)
	resp0.Body.Close()
	if string(body) != "{}\n" {
		t.Fatalf("report body = %q", body)
	}
	var j *Job
	if jobs := s.Jobs(); len(jobs) == 1 {
		j = jobs[0]
	} else {
		t.Fatalf("jobs = %d, want 1", len(jobs))
	}
	time.Sleep(5 * time.Millisecond)
	for _, path := range []string{"", "/report", "/stream", "/figures/fig2"} {
		resp, err := http.Get(srv.URL + "/v1/runs/" + j.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("GET %s = %s, want 410", path, resp.Status)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("DELETE evicted = %s, want 410", resp.Status)
	}
}

// TestHTTPQueueFull429 verifies overflow surfaces as 429 + Retry-After.
func TestHTTPQueueFull429(t *testing.T) {
	s, started, release := blockingService(t, 1, 1)
	defer close(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(seed int) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"scale":"quick","seed":%d}`, seed)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	post(911)
	waitStart(t, started)
	post(912)
	resp := post(913)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(fetch(t, srv.URL+"/metrics"), "jasd_jobs_total{state=\"rejected\"} 1") {
		t.Fatal("rejection not counted")
	}
}

// TestHTTPPprofAndHealth pins the observability wiring.
func TestHTTPPprofAndHealth(t *testing.T) {
	s, _, release := blockingService(t, 1, 1)
	close(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if got := fetch(t, srv.URL+"/healthz"); got != "ok\n" {
		t.Fatalf("healthz = %q", got)
	}
	if got := fetch(t, srv.URL+"/debug/pprof/cmdline"); len(got) == 0 {
		t.Fatal("pprof cmdline empty")
	}
}

// fetch GETs url and returns the body, failing the test on non-200.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, b)
	}
	return string(b)
}

// streamLines reads an NDJSON stream to EOF.
func streamLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	return lines
}

// TestSpecBodyBounded: an oversized POST body on either submission
// endpoint is refused with 413 before it is buffered, while a small
// malformed body still gets the ordinary 400.
func TestSpecBodyBounded(t *testing.T) {
	defer func(old int64) { maxSpecBytes = old }(maxSpecBytes)
	maxSpecBytes = 1 << 10
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	// Valid JSON up to the cut: only the size makes these bodies wrong.
	pad := strings.Repeat(" ", 2<<10)
	for _, c := range []struct{ path, body string }{
		{"/v1/runs", `{"scale":"quick",` + pad + `"seed":1}`},
		{"/v1/sweeps", `{"base":{"scale":"quick"},` + pad + `"axes":[]}`},
	} {
		if got := post(c.path, c.body); got != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413", c.path, len(c.body), got)
		}
		if got := post(c.path, `{"bogus":1}`); got != http.StatusBadRequest {
			t.Errorf("POST %s with unknown field: status %d, want 400", c.path, got)
		}
	}
}
