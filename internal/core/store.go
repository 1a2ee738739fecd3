package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"jasworkload/internal/db"
	"jasworkload/internal/driver"
	"jasworkload/internal/power4"
	"jasworkload/internal/server"
	"jasworkload/internal/sim"
	"jasworkload/internal/stats"
)

// This file is the persistent, content-addressed artifact store. Runs are
// pure functions of their canonical config, so a finished artifact can be
// serialized once and served forever: across daemon restarts, and across N
// jasd replicas sharing one directory. What is persisted is not the live
// engine (gigabytes of SUT state) but the materialized views a report
// consumes — the figure results plus the small window/scalar snapshots
// the remaining accessors need. A run rebuilt from the store ("hydrated")
// answers every report, sweep, and figure request byte-identically to the
// simulation that produced it, at zero simulation cost.
//
// Keys are the existing cache identities: request-level entries key on the
// RequestKey sha256, detail entries (and the crosschecks/scalars/largepages
// view memos that ride on the detail identity) on the canonical-config
// sha256 — the same value the service's job IDs truncate. Entries are
// written through db.WriteEntryFile (versioned header, payload checksum,
// temp-file + rename), so a torn or corrupt entry is detected on read and
// treated as a miss, never served.
//
// Cross-replica dedup uses store-level leases: a replica that misses tries
// to take <dir>/lease/<kind>-<key>.lock (O_CREATE|O_EXCL). The winner
// simulates, persists, releases; losers poll until the lease clears and
// then re-check the store, so two replicas racing the same key cost one
// simulation. A crashed holder's lease goes stale by mtime and is broken.

// Store entry kinds, doubling as the metric label values.
const (
	kindRequestLevel = "request-level"
	kindDetail       = "detail"
	kindCrossChecks  = "crosschecks"
	kindScalars      = "scalars"
	kindLargePages   = "largepages"
)

// storeKinds lists every entry kind in stable metric order.
var storeKinds = []string{kindRequestLevel, kindDetail, kindCrossChecks, kindScalars, kindLargePages}

// ArtifactStore is a disk-backed content-addressed store of finished runs.
// All methods are safe for concurrent use from many goroutines and many
// processes sharing the directory.
type ArtifactStore struct {
	dir       string
	leaseTTL  time.Duration // a lease older than this is a crashed holder
	leasePoll time.Duration

	mu         sync.Mutex
	hits       map[string]uint64
	misses     map[string]uint64
	writes     uint64
	writeFails uint64
	corrupt    uint64
	leaseWaits uint64
}

// OpenStore opens (creating if needed) the artifact store rooted at dir.
func OpenStore(dir string) (*ArtifactStore, error) {
	if dir == "" {
		return nil, errors.New("core: empty store directory")
	}
	for _, sub := range []string{kindRequestLevel, kindDetail, kindCrossChecks, kindScalars, kindLargePages, "lease"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("core: open store: %w", err)
		}
	}
	return &ArtifactStore{
		dir:       dir,
		leaseTTL:  10 * time.Minute,
		leasePoll: 25 * time.Millisecond,
		hits:      map[string]uint64{},
		misses:    map[string]uint64{},
	}, nil
}

// persistentStore is the process-wide store; nil means persistence is off
// (the default — pure in-memory caching, exactly the pre-store behaviour).
var persistentStore struct {
	mu sync.RWMutex
	s  *ArtifactStore
}

// SetStore installs s as the process-wide persistent store (nil disables
// persistence) and returns the previous one. Flip it only between
// experiments: in-memory artifacts created under the old setting keep the
// behaviour they were born with.
func SetStore(s *ArtifactStore) *ArtifactStore {
	persistentStore.mu.Lock()
	prev := persistentStore.s
	persistentStore.s = s
	persistentStore.mu.Unlock()
	return prev
}

// CurrentStore returns the installed persistent store, or nil.
func CurrentStore() *ArtifactStore {
	persistentStore.mu.RLock()
	defer persistentStore.mu.RUnlock()
	return persistentStore.s
}

// StoreStats is a snapshot of one store's counters.
type StoreStats struct {
	Hits       map[string]uint64 // by entry kind
	Misses     map[string]uint64
	Writes     uint64
	WriteFails uint64
	Corrupt    uint64 // torn/damaged entries detected (each also a miss)
	LeaseWaits uint64 // times a load waited out another replica's lease
	Bytes      int64  // bytes resident on disk
}

// Kinds lists every entry kind in the stable order metrics emit them.
func (StoreStats) Kinds() []string { return storeKinds }

// Stats snapshots the store's counters and measures its on-disk size.
func (s *ArtifactStore) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{
		Hits:       make(map[string]uint64, len(s.hits)),
		Misses:     make(map[string]uint64, len(s.misses)),
		Writes:     s.writes,
		WriteFails: s.writeFails,
		Corrupt:    s.corrupt,
		LeaseWaits: s.leaseWaits,
	}
	for k, v := range s.hits {
		st.Hits[k] = v
	}
	for k, v := range s.misses {
		st.Misses[k] = v
	}
	s.mu.Unlock()
	st.Bytes = s.bytes()
	return st
}

// PersistentStoreStats reports the installed store's statistics; ok is
// false when persistence is disabled.
func PersistentStoreStats() (StoreStats, bool) {
	s := CurrentStore()
	if s == nil {
		return StoreStats{}, false
	}
	return s.Stats(), true
}

// bytes walks the store directory and sums entry sizes.
func (s *ArtifactStore) bytes() int64 {
	var n int64
	filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// ---------------------------------------------------------------- keys

// hashKey content-addresses a cache key: the full sha256 of its canonical
// Go representation (the same derivation the service's job IDs truncate;
// %#v includes unexported fields, so the whole RequestKey participates).
func hashKey(key any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", key)))
	return hex.EncodeToString(sum[:])
}

// requestKeyHash addresses a request-level entry.
func requestKeyHash(k RequestKey) string { return hashKey(k) }

// detailKeyHash addresses a detail entry (and the view entries that share
// the detail identity) for a canonical config.
func detailKeyHash(cfg RunConfig) string { return hashKey(cfg.canonical()) }

// ---------------------------------------------------------------- entries

// rlStoreEntry is the persisted form of a request-level run: the three
// figure views plus the snapshot behind the run's scalar accessors.
type rlStoreEntry struct {
	Fig2      Fig2Result
	Fig3      Fig3Result
	Fig4      Fig4Result
	Windows   []sim.WindowStats
	JOPS      float64
	MeanUtil  float64
	SegTotals [server.NumSegments]uint64
	AuditRows []driver.ClassAudit
	AuditPass bool
}

// detStoreEntry is the persisted form of a detail run: figures 5-10, the
// locking table, and the steady translation-group series the large-page
// ablation consumes (keyed by event name).
type detStoreEntry struct {
	Fig5        Fig5Result
	Fig6        Fig6Result
	Fig7        Fig7Result
	Fig8        Fig8Result
	Fig9        Fig9Result
	Fig10       Fig10Result
	Locking     LockingResult
	TransSteady map[string]*stats.Series
}

// transSteadyEvents lists the translation-group events whose steady series
// must survive hydration (the large-page ablation re-reads them).
var transSteadyEvents = []power4.Event{
	power4.EvInstCompleted,
	power4.EvDTLBMiss,
	power4.EvITLBMiss,
	power4.EvDERATMiss,
	power4.EvIERATMiss,
}

// encode gobs a value for an entry payload.
func encodeEntry(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// entryPath places an entry in its kind subdirectory.
func (s *ArtifactStore) entryPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key+".art")
}

// readEntry loads and decodes one entry into out. A missing file is a
// plain miss; a corrupt or undecodable one counts as corruption and is
// also a miss — never an error surfaced to the caller.
func (s *ArtifactStore) readEntry(kind, key string, out any) bool {
	payload, err := db.ReadEntryFile(s.entryPath(kind, key), kind, key)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(payload)).Decode(out)
		if err == nil {
			s.note(func() { s.hits[kind]++ })
			return true
		}
		// Decodable header, undecodable payload: a stale or damaged entry.
		err = fmt.Errorf("%w: %v", db.ErrCorruptEntry, err)
	}
	if errors.Is(err, db.ErrCorruptEntry) {
		s.note(func() { s.corrupt++ })
	}
	s.note(func() { s.misses[kind]++ })
	return false
}

// writeEntry encodes and atomically persists one entry. Failures are
// counted but not propagated: the in-memory result is already correct, and
// the next process simply re-simulates.
func (s *ArtifactStore) writeEntry(kind, key string, v any) {
	payload, err := encodeEntry(v)
	if err == nil {
		err = db.WriteEntryFile(s.entryPath(kind, key), kind, key, payload)
	}
	if err != nil {
		s.note(func() { s.writeFails++ })
		return
	}
	s.note(func() { s.writes++ })
}

// note runs fn under the counter lock.
func (s *ArtifactStore) note(fn func()) {
	s.mu.Lock()
	fn()
	s.mu.Unlock()
}

// ------------------------------------------------------- request level

// loadRequestLevel hydrates a request-level run from the store.
func (s *ArtifactStore) loadRequestLevel(key string, cfg RunConfig) (*RequestLevelRun, bool) {
	var e rlStoreEntry
	if !s.readEntry(kindRequestLevel, key, &e) {
		return nil, false
	}
	r := &RequestLevelRun{Cfg: cfg, snap: &rlSnapshot{
		windows:   e.Windows,
		jops:      e.JOPS,
		meanUtil:  e.MeanUtil,
		segTotals: e.SegTotals,
		auditRows: e.AuditRows,
		auditPass: e.AuditPass,
	}}
	r.fig2.set(e.Fig2)
	r.fig3.set(e.Fig3)
	r.fig4.set(e.Fig4)
	return r, true
}

// saveRequestLevel persists a finished request-level run. Forcing the
// figure views here is what makes a later hydration free: they are exactly
// the memos a report reads.
func (s *ArtifactStore) saveRequestLevel(key string, run *RequestLevelRun) {
	rows, pass := run.Audit()
	s.writeEntry(kindRequestLevel, key, &rlStoreEntry{
		Fig2:      run.Fig2(),
		Fig3:      run.Fig3(),
		Fig4:      run.Fig4(),
		Windows:   run.Windows(),
		JOPS:      run.JOPS(),
		MeanUtil:  run.MeanUtilization(),
		SegTotals: run.SegmentTotals(),
		AuditRows: rows,
		AuditPass: pass,
	})
}

// ------------------------------------------------------------- detail

// loadDetail hydrates a detail run from the store.
func (s *ArtifactStore) loadDetail(key string, cfg RunConfig) (*DetailRun, bool) {
	var e detStoreEntry
	if !s.readEntry(kindDetail, key, &e) {
		return nil, false
	}
	d := &DetailRun{Cfg: cfg, transSteady: e.TransSteady}
	d.fig5.set(e.Fig5)
	d.fig6.set(e.Fig6)
	d.fig7.set(e.Fig7)
	d.fig8.set(e.Fig8)
	d.fig9.set(e.Fig9)
	d.fig10.set(e.Fig10)
	d.locking.set(e.Locking)
	return d, true
}

// saveDetail persists a finished detail run: every figure view plus the
// steady translation series. A run whose figures error (e.g. it was built
// under an exotic group subset) is simply not persisted.
func (s *ArtifactStore) saveDetail(key string, d *DetailRun) {
	e := detStoreEntry{TransSteady: make(map[string]*stats.Series, len(transSteadyEvents))}
	var err error
	if e.Fig5, err = d.Fig5(); err != nil {
		return
	}
	if e.Fig6, err = d.Fig6(); err != nil {
		return
	}
	if e.Fig7, err = d.Fig7(); err != nil {
		return
	}
	if e.Fig8, err = d.Fig8(); err != nil {
		return
	}
	if e.Fig9, err = d.Fig9(); err != nil {
		return
	}
	if e.Fig10, err = d.Fig10(); err != nil {
		return
	}
	if e.Locking, err = d.Locking(); err != nil {
		return
	}
	for _, ev := range transSteadyEvents {
		s, err := d.steadySeries("translation", ev)
		if err != nil {
			return
		}
		e.TransSteady[ev.String()] = s
	}
	s.writeEntry(kindDetail, key, &e)
}

// --------------------------------------------------------------- views

// loadStoreView reads a small view entry (crosschecks, scalars, large
// pages) keyed by the detail identity.
func loadStoreView[T any](s *ArtifactStore, kind, key string) (T, bool) {
	var v T
	ok := s.readEntry(kind, key, &v)
	return v, ok
}

// saveStoreView persists a small view entry.
func saveStoreView[T any](s *ArtifactStore, kind, key string, v T) {
	s.writeEntry(kind, key, v)
}

// --------------------------------------------------------------- leases

// leasePath names the lock file guarding one entry's execution.
func (s *ArtifactStore) leasePath(kind, key string) string {
	return filepath.Join(s.dir, "lease", kind+"-"+key+".lock")
}

// acquireLease tries to claim the execution of (kind, key) across every
// process sharing the store. On success it returns a release func. A lease
// whose file is older than the TTL belonged to a crashed holder and is
// broken.
func (s *ArtifactStore) acquireLease(kind, key string) (release func(), ok bool) {
	path := s.leasePath(kind, key)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "pid %d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, true
		}
		info, serr := os.Stat(path)
		if serr != nil {
			continue // holder released between our open and stat; retry
		}
		if time.Since(info.ModTime()) <= s.leaseTTL {
			return nil, false
		}
		os.Remove(path) // stale: the holder crashed mid-simulation
	}
	return nil, false
}

// waitLease blocks until the lease on (kind, key) clears (released or gone
// stale) or ctx is cancelled. The caller re-checks the store afterwards.
func (s *ArtifactStore) waitLease(ctx context.Context, kind, key string) error {
	s.note(func() { s.leaseWaits++ })
	path := s.leasePath(kind, key)
	t := time.NewTicker(s.leasePoll)
	defer t.Stop()
	for {
		info, err := os.Stat(path)
		if err != nil || time.Since(info.ModTime()) > s.leaseTTL {
			return nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runDeduped coordinates one cross-replica execution of an entry: serve a
// store hit, else race for the lease; the winner simulates and persists,
// losers wait the lease out and re-check the store. Two replicas (or two
// goroutines in one replica that missed the in-memory cache) racing the
// same key therefore cost one simulation.
func runDeduped[T any](ctx context.Context, s *ArtifactStore, kind, key string,
	load func() (T, bool), run func() (T, error), save func(T)) (T, error) {
	for {
		if v, ok := load(); ok {
			return v, nil
		}
		if release, ok := s.acquireLease(kind, key); ok {
			v, err := run()
			if err == nil {
				save(v)
			}
			release()
			return v, err
		}
		if err := s.waitLease(ctx, kind, key); err != nil {
			var zero T
			return zero, err
		}
	}
}

// loadOrCompute is the store-through pattern of the small view memos:
// serve a persisted view, else compute under the cross-replica lease and
// persist. With no store installed it is just compute.
func loadOrCompute[T any](ctx context.Context, kind string, cfg RunConfig, compute func() (T, error)) (T, error) {
	s := CurrentStore()
	if s == nil {
		return compute()
	}
	key := detailKeyHash(cfg)
	return runDeduped(ctx, s, kind, key,
		func() (T, bool) { return loadStoreView[T](s, kind, key) },
		compute,
		func(v T) { saveStoreView(s, kind, key, v) })
}
