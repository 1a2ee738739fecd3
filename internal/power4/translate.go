package power4

import (
	"fmt"

	"jasworkload/internal/mem"
)

// TransCache is a small set-associative translation cache used for both the
// ERATs (effective-to-real address translation tables) and the unified TLB.
// Entries are keyed by virtual page number plus a page-size bit, so 4 KB and
// 16 MB pages coexist the way the POWER4 ERAT/TLB hold both.
type TransCache struct {
	name string
	sets uint64
	ways int
	keys []uint64
	ok   []bool
	use  []uint64
	mru  []uint32 // per set: way of the most recent hit (probe-order hint)
	tick uint64
}

// NewTransCache builds a translation cache with entries = sets*ways; sets
// must be a power of two.
func NewTransCache(name string, sets uint64, ways int) (*TransCache, error) {
	if sets == 0 || sets&(sets-1) != 0 || ways <= 0 {
		return nil, fmt.Errorf("power4: %s: bad geometry sets=%d ways=%d", name, sets, ways)
	}
	n := int(sets) * ways
	return &TransCache{
		name: name,
		sets: sets,
		ways: ways,
		keys: make([]uint64, n),
		ok:   make([]bool, n),
		use:  make([]uint64, n),
		mru:  make([]uint32, sets),
	}, nil
}

// Entries returns the capacity of the cache.
func (t *TransCache) Entries() int { return int(t.sets) * t.ways }

func key(tr mem.Translation) uint64 {
	k := tr.VPN << 1
	if tr.PageSize == mem.Page16M {
		k |= 1
	}
	return k
}

// Lookup probes for the page of tr; a hit refreshes LRU state.
func (t *TransCache) Lookup(tr mem.Translation) bool {
	t.tick++
	k := key(tr)
	set := k & (t.sets - 1)
	base := int(set) * t.ways
	// Most-recent-hit way first: probe order only, outcome and recency
	// state are unchanged by the hint.
	if i := base + int(t.mru[set]); t.ok[i] && t.keys[i] == k {
		t.use[i] = t.tick
		return true
	}
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.ok[i] && t.keys[i] == k {
			t.use[i] = t.tick
			t.mru[set] = uint32(w)
			return true
		}
	}
	return false
}

// Insert fills the translation for tr, evicting LRU if needed.
func (t *TransCache) Insert(tr mem.Translation) {
	k := key(tr)
	set := k & (t.sets - 1)
	base := int(set) * t.ways
	victim, oldest := -1, ^uint64(0)
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.ok[i] && t.keys[i] == k {
			t.use[i] = t.tick
			return
		}
		if !t.ok[i] {
			victim = i
			break
		}
		if t.use[i] < oldest {
			oldest = t.use[i]
			victim = i
		}
	}
	t.ok[victim] = true
	t.keys[victim] = k
	t.use[victim] = t.tick
	t.mru[set] = uint32(victim - base)
}

// Flush invalidates everything (used across context switches in tests).
func (t *TransCache) Flush() {
	for i := range t.ok {
		t.ok[i] = false
	}
}

// MMUConfig sizes the translation structures. Defaults follow POWER4:
// 128-entry I- and D-ERAT, 1024-entry 4-way unified TLB, 64-entry SLB.
type MMUConfig struct {
	ERATSets uint64
	ERATWays int
	TLBSets  uint64
	TLBWays  int
	SLBSets  uint64
	SLBWays  int
}

// DefaultMMUConfig returns the POWER4 geometry.
func DefaultMMUConfig() MMUConfig {
	return MMUConfig{ERATSets: 32, ERATWays: 4, TLBSets: 256, TLBWays: 4, SLBSets: 16, SLBWays: 4}
}

// MMU bundles one core's translation path: separate instruction and data
// ERATs backed by a shared unified TLB, plus the segment lookaside buffer
// consulted alongside the TLB on ERAT misses (the paper: "ERAT misses
// trigger TLB reads, which, along with a segment-lookaside buffer lookup,
// take at least 14 cycles").
type MMU struct {
	ierat *TransCache
	derat *TransCache
	tlb   *TransCache
	slb   *TransCache
}

// NewMMU builds the translation path.
func NewMMU(cfg MMUConfig) (*MMU, error) {
	ie, err := NewTransCache("IERAT", cfg.ERATSets, cfg.ERATWays)
	if err != nil {
		return nil, err
	}
	de, err := NewTransCache("DERAT", cfg.ERATSets, cfg.ERATWays)
	if err != nil {
		return nil, err
	}
	tlb, err := NewTransCache("TLB", cfg.TLBSets, cfg.TLBWays)
	if err != nil {
		return nil, err
	}
	if cfg.SLBSets == 0 {
		cfg.SLBSets, cfg.SLBWays = 16, 4
	}
	slb, err := NewTransCache("SLB", cfg.SLBSets, cfg.SLBWays)
	if err != nil {
		return nil, err
	}
	return &MMU{ierat: ie, derat: de, tlb: tlb, slb: slb}, nil
}

// AccessResult describes one translation walk.
type AccessResult struct {
	ERATMiss bool // missed the first-level ERAT
	TLBMiss  bool // also missed the unified TLB (page-table walk)
	SLBMiss  bool // the 256 MB segment was not in the SLB (segment-table walk)
}

// segShift is the PowerPC 256 MB segment granularity.
const segShift = 28

// translate walks one side (ERAT then SLB+TLB), filling on the way back.
func (m *MMU) translate(erat *TransCache, tr mem.Translation) AccessResult {
	if erat.Lookup(tr) {
		return AccessResult{}
	}
	res := AccessResult{ERATMiss: true}
	// The SLB is consulted in parallel with the TLB; segments are keyed at
	// 256 MB granularity (page-size bit irrelevant at segment scale).
	seg := mem.Translation{VPN: (tr.VPN << tr.PageSize.Shift()) >> segShift, PageSize: mem.Page4K}
	if !m.slb.Lookup(seg) {
		res.SLBMiss = true
		m.slb.Insert(seg)
	}
	if !m.tlb.Lookup(tr) {
		res.TLBMiss = true
		m.tlb.Insert(tr)
	}
	erat.Insert(tr)
	return res
}

// Data translates a data access.
func (m *MMU) Data(tr mem.Translation) AccessResult { return m.translate(m.derat, tr) }

// Inst translates an instruction fetch.
func (m *MMU) Inst(tr mem.Translation) AccessResult { return m.translate(m.ierat, tr) }
