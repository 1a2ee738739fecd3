package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"jasworkload/internal/service"
)

func testRouter(t *testing.T, addrs ...string) *router {
	t.Helper()
	rt, err := newRouter(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// The ring is a pure function of the backend list: the same key maps to
// the same backend in every router instance, which is what lets clients
// hit any router (or a restarted one) and land on the owning replica.
func TestRouterRingStable(t *testing.T) {
	addrs := []string{"http://10.0.0.1:8077", "http://10.0.0.2:8077", "http://10.0.0.3:8077"}
	a, b := testRouter(t, addrs...), testRouter(t, addrs...)
	for _, key := range []string{"", "abc123", "deadbeef0001", "job-x", "sweep-y"} {
		if a.pick(key) != b.pick(key) {
			t.Errorf("key %q: instance A picks %d, B picks %d", key, a.pick(key), b.pick(key))
		}
	}
}

// With virtual nodes every backend owns a usable share of key space.
func TestRouterDistribution(t *testing.T) {
	rt := testRouter(t, "http://a:1", "http://b:1", "http://c:1")
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[rt.pick(strings.Repeat("k", 1+i%17)+string(rune('a'+i%26)))+0]++
	}
	for i, n := range counts {
		if n < 300 { // perfectly uniform would be 1000 each
			t.Errorf("backend %d owns only %d/3000 keys", i, n)
		}
	}
}

// ID-bearing paths route by the embedded ID, on every sub-resource alike,
// so a job's status, report, figures, and stream all reach the replica
// that accepted its submission.
func TestRouterPathID(t *testing.T) {
	cases := []struct {
		path string
		id   string
		ok   bool
	}{
		{"/v1/runs/abc123", "abc123", true},
		{"/v1/runs/abc123/report", "abc123", true},
		{"/v1/runs/abc123/figures/fig2", "abc123", true},
		{"/v1/runs/abc123/stream", "abc123", true},
		{"/v1/sweeps/s77/table", "s77", true},
		{"/v1/sweeps/s77", "s77", true},
		{"/v1/runs", "", false},
		{"/v1/runs/", "", false},
		{"/v1/sweeps", "", false},
		{"/metrics", "", false},
		{"/v1/workloads", "", false},
	}
	for _, tc := range cases {
		id, ok := pathID(tc.path)
		if id != tc.id || ok != tc.ok {
			t.Errorf("pathID(%q) = %q,%v want %q,%v", tc.path, id, ok, tc.id, tc.ok)
		}
	}
}

// A run submission routes by the job ID its canonical config derives, so
// equivalent specs — including ones differing only in delivery metadata
// like timeout_s — converge on one backend; and reading the body for the
// key leaves it intact for the proxy leg.
func TestRouterRunSubmissionKey(t *testing.T) {
	rt := testRouter(t, "http://a:1", "http://b:1")
	key := func(body string) string {
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body))
		k, err := rt.routeKey(httptest.NewRecorder(), r)
		if err != nil {
			t.Fatalf("routeKey: %v", err)
		}
		got, err := io.ReadAll(r.Body)
		if err != nil || string(got) != body {
			t.Fatalf("body not restored after routing: %q, %v", got, err)
		}
		return k
	}
	base := key(`{"scale":"quick","seed":1}`)
	if base == "" {
		t.Fatal("run submission produced no routing key")
	}
	if k := key(`{"seed":1,"scale":"quick","timeout_s":30}`); k != base {
		t.Errorf("equivalent specs keyed differently: %q vs %q", k, base)
	}
	if k := key(`{"scale":"quick","seed":2}`); k == base {
		t.Error("distinct seeds share a routing key")
	}
	// A malformed spec still routes deterministically (by body) and the
	// owning backend reports the 400.
	if a, b := key(`{"scale":"nope"}`), key(`{"scale":"nope"}`); a != b || a == "" {
		t.Errorf("malformed spec not body-keyed deterministically: %q vs %q", a, b)
	}
}

// End to end through the proxy: a submission and the follow-up GET for its
// job ID land on the same live backend.
func TestRouterProxiesToOwner(t *testing.T) {
	hits := make([]int, 2)
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i]++
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(http.StatusOK)
		}))
	}
	b0, b1 := mk(0), mk(1)
	defer b0.Close()
	defer b1.Close()

	rt := testRouter(t, b0.URL, b1.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	spec := `{"scale":"quick","seed":1}`
	resp, err := http.Post(front.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits[0]+hits[1] != 1 {
		t.Fatalf("submission reached %d backends", hits[0]+hits[1])
	}
	owner := 0
	if hits[1] == 1 {
		owner = 1
	}

	// The GET routes by the ID in the path; derive it the way the router
	// derives the POST key so the two legs agree.
	r := httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(spec))
	id, err := rt.routeKey(httptest.NewRecorder(), r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(front.URL + "/v1/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits[owner] != 2 {
		t.Fatalf("follow-up GET left the owning backend: hits %v", hits)
	}
}

// paddedSpec is a valid run spec of exactly n bytes: the compact spec
// with insignificant whitespace before its closing brace.
func paddedSpec(n int) string {
	const head = `{"scale":"quick","seed":1`
	return head + strings.Repeat(" ", n-len(head)-1) + "}"
}

// A valid submission larger than any fixed read-ahead but within the
// replicas' bound reaches the owning backend byte for byte, and routes by
// its parsed job ID rather than by a hash of a cut body.
func TestRouterForwardsLargeSpecWhole(t *testing.T) {
	var got []byte
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	rt := testRouter(t, backend.URL)
	front := httptest.NewServer(rt)
	defer front.Close()

	spec := paddedSpec(4<<20 + 1)
	resp, err := http.Post(front.URL+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if string(got) != spec {
		t.Fatalf("backend received %d bytes, want the %d-byte spec unchanged", len(got), len(spec))
	}

	key := func(body string) string {
		k, err := rt.routeKey(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if big, small := key(spec), key(`{"scale":"quick","seed":1}`); big != small {
		t.Errorf("padded spec routed by %q, compact spec by %q", big, small)
	}
}

// A submission past the replicas' bound is refused by the router itself
// with 413, on both submission endpoints, and no backend sees it.
func TestRouterRejectsOversizedSpec(t *testing.T) {
	hits := 0
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	rt := testRouter(t, backend.URL)

	spec := paddedSpec(int(service.MaxSpecBytes()) + 1)
	for _, path := range []string{"/v1/runs", "/v1/sweeps"} {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(spec)))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413", path, len(spec), rec.Code)
		}
	}
	if hits != 0 {
		t.Errorf("oversized submissions reached the backend %d times", hits)
	}
}

// FuzzRouteKey: routing never panics on any path or body, and a POST body
// within the bound is left on the request exactly as it arrived, so the
// proxy leg forwards what the client sent.
func FuzzRouteKey(f *testing.F) {
	for _, seed := range []struct{ path, body string }{
		{"/v1/runs", `{"scale":"quick","seed":1}`},
		{"/v1/runs", `{"seed":1,"scale":"quick","timeout_s":30}`},
		{"/v1/runs", `{"scale":"nope"}`},
		{"/v1/runs", paddedSpec(4<<20 + 1)},
		{"/v1/sweeps", `{"base":{"scale":"quick"},"axes":[{"param":"heap_mb","values":[128,256]}]}`},
		{"/v1/runs/abc123/report", ""},
		{"/v1/sweeps/s77/table", ""},
		{"/v1/runs/", "{"},
		{"/metrics", "\x00\xff"},
		{"", `[1,2,`},
	} {
		f.Add(seed.path, []byte(seed.body))
	}
	rt, err := newRouter([]string{"http://a:1", "http://b:1"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, path string, body []byte) {
		pathID(path)
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: path},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		if _, err := rt.routeKey(httptest.NewRecorder(), r); err != nil {
			t.Fatalf("routeKey(%q) on a %d-byte body: %v", path, len(body), err)
		}
		got, err := io.ReadAll(r.Body)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("routeKey(%q) left %d bytes on the request, want the %d-byte body unchanged (err %v)",
				path, len(got), len(body), err)
		}
	})
}
