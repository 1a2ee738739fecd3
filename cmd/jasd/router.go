package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"jasworkload/internal/service"
)

// router is a thin consistent-hash front for N jasd replicas sharing one
// persistent artifact store. It owns no job state: each request is routed
// by its job identity — the same derivation the backends use — so every
// submission, status poll, and stream for one config lands on the replica
// that owns that job. Configs the ring maps to different replicas still
// cost one simulation total, because the replicas dedupe through the
// shared store's leases; the ring's job is to keep the *in-memory* job
// lifecycle (queue slot, stream hub, done-ring entry) on a single replica
// so wait=1 and stream resume work unchanged.
type router struct {
	ring     []ringPoint
	backends []*httputil.ReverseProxy
	addrs    []string
}

// ringPoint is one virtual node: a hash position owned by a backend index.
type ringPoint struct {
	hash    uint64
	backend int
}

// virtualNodes spreads each backend across the ring so load stays near
// uniform even with two or three replicas.
const virtualNodes = 64

// newRouter builds the ring over the given backend base URLs.
func newRouter(addrs []string) (*router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("router needs at least one backend")
	}
	rt := &router{addrs: addrs}
	for i, a := range addrs {
		u, err := url.Parse(a)
		if err != nil {
			return nil, fmt.Errorf("backend %q: %w", a, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("backend %q: need a full base URL like http://host:port", a)
		}
		rt.backends = append(rt.backends, httputil.NewSingleHostReverseProxy(u))
		for v := 0; v < virtualNodes; v++ {
			rt.ring = append(rt.ring, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", a, v)), backend: i})
		}
	}
	sort.Slice(rt.ring, func(a, b int) bool { return rt.ring[a].hash < rt.ring[b].hash })
	return rt, nil
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	return h.Sum64()
}

// pick maps a routing key to its owning backend index by walking the ring
// clockwise from the key's hash.
func (rt *router) pick(key string) int {
	h := hash64(key)
	i := sort.Search(len(rt.ring), func(i int) bool { return rt.ring[i].hash >= h })
	if i == len(rt.ring) {
		i = 0
	}
	return rt.ring[i].backend
}

// routeKey derives the request's routing key. ID-bearing paths route by
// the embedded job or sweep ID; a run submission routes by the job ID its
// canonical config will get (so the POST and every later GET for it agree);
// a sweep submission routes by its body. Everything else — listings,
// /metrics, /v1/workloads — has no job identity and pins to a stable
// default backend. A submission body is buffered under the replicas' own
// size bound and left on r intact for the proxy leg; a body that cannot
// be read whole is an error (an *http.MaxBytesError past the bound).
func (rt *router) routeKey(w http.ResponseWriter, r *http.Request) (string, error) {
	if id, ok := pathID(r.URL.Path); ok {
		return id, nil
	}
	if r.Method == http.MethodPost && (r.URL.Path == "/v1/runs" || r.URL.Path == "/v1/sweeps") {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxSpecBytes()))
		r.Body.Close()
		if err != nil {
			return "", err
		}
		// Restore the body for the proxy leg.
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		r.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
		if r.URL.Path == "/v1/runs" {
			var spec service.JobSpec
			if json.Unmarshal(body, &spec) == nil {
				if cfg, err := spec.RunConfig(); err == nil {
					return service.JobID(cfg), nil
				}
			}
		}
		// Sweeps (and malformed run specs, which any backend rejects the
		// same way) route by raw body: identical resubmissions stay put.
		return fmt.Sprintf("body:%016x", hash64(string(body))), nil
	}
	return "", nil
}

// pathID extracts the job or sweep ID from /v1/runs/{id}[/...] and
// /v1/sweeps/{id}[/...].
func pathID(path string) (string, bool) {
	for _, prefix := range []string{"/v1/runs/", "/v1/sweeps/"} {
		if rest, ok := strings.CutPrefix(path, prefix); ok && rest != "" {
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			if rest != "" {
				return rest, true
			}
		}
	}
	return "", false
}

// ServeHTTP proxies the request to the backend its routing key owns. A
// submission body the router cannot buffer is answered here, the same way
// a replica would answer it (413 past the bound, 400 otherwise), and
// reaches no backend.
func (rt *router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, err := rt.routeKey(w, r)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"error": "reading request body: " + err.Error()})
		return
	}
	rt.backends[rt.pick(key)].ServeHTTP(w, r)
}

// runRouter is the -route mode entry point: a stateless front that shares
// the daemon's listener conventions (-addr, -addrfile, signal-driven
// shutdown) but owns no jobs of its own.
func runRouter(logger *log.Logger, addr, addrfile, route string) {
	var addrs []string
	for _, a := range strings.Split(route, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	rt, err := newRouter(addrs)
	if err != nil {
		logger.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("routing on http://%s across %d replicas: %s", ln.Addr(), len(addrs), strings.Join(addrs, ", "))
	if addrfile != "" {
		if err := os.WriteFile(addrfile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Fatal(err)
		}
	}

	srv := &http.Server{Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		logger.Printf("received %s, draining", sig)
	case err := <-errCh:
		logger.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	logger.Printf("drained cleanly")
}
