package power4

import "fmt"

// DataSource labels where a load that missed the L1 D-cache was satisfied
// from, following the POWER4 naming the paper uses in Figure 9:
//
//   - L2:      the requesting core's own on-chip L2
//   - L2.5:    an off-chip L2 on the same MCM
//   - L2.75:   an L2 on a different MCM (Shared or Modified MESI state)
//   - L3:      the MCM-local L3
//   - L3.5:    an L3 attached to a different MCM
//   - Memory:  DRAM
type DataSource int

// Data sources in increasing latency order.
const (
	SrcL1 DataSource = iota
	SrcL2
	SrcL25Shr
	SrcL25Mod
	SrcL275Shr
	SrcL275Mod
	SrcL3
	SrcL35
	SrcMem
	numSources
)

// NumSources is the number of data source labels.
const NumSources = int(numSources)

var sourceNames = [...]string{
	SrcL1:      "L1",
	SrcL2:      "L2",
	SrcL25Shr:  "L2.5 Shared",
	SrcL25Mod:  "L2.5 Modified",
	SrcL275Shr: "L2.75 Shared",
	SrcL275Mod: "L2.75 Modified",
	SrcL3:      "L3",
	SrcL35:     "L3.5",
	SrcMem:     "Memory",
}

// String names the source as in Figure 9.
func (s DataSource) String() string {
	if int(s) < len(sourceNames) {
		return sourceNames[s]
	}
	return fmt.Sprintf("src(%d)", int(s))
}

// TopologyConfig describes the multi-chip layout. The paper's SUT: 4 cores
// as 2 MCMs, each MCM holding one live 2-core chip with a shared L2, and
// one L3 per MCM (hence no L2.5 traffic is ever observed).
type TopologyConfig struct {
	Chips        int // live chips
	CoresPerChip int
	ChipsPerMCM  int // live chips per MCM
	L2           CacheConfig
	L3           CacheConfig
}

// DefaultTopologyConfig returns the paper's 4-core / 2-MCM system with
// POWER4 cache geometry (1.5 MB 8-way L2 per chip, 32 MB 8-way L3 per MCM).
func DefaultTopologyConfig() TopologyConfig {
	return TopologyConfig{
		Chips:        2,
		CoresPerChip: 2,
		ChipsPerMCM:  1,
		L2: CacheConfig{
			Name: "L2", SizeBytes: 1536 << 10, Ways: 12, LineBytes: 128, Repl: ReplLRU,
		},
		L3: CacheConfig{
			Name: "L3", SizeBytes: 32 << 20, Ways: 8, LineBytes: 512, Repl: ReplLRU,
		},
	}
}

// storeFastEntry is one line the store fast path may skip work for,
// together with its L2 set index (used for set-granular invalidation).
type storeFastEntry struct {
	line uint64
	set  uint64
}

// lineState is the directory entry for a line resident in >= 1 L2.
type lineState struct {
	sharers uint8 // bitmask over chips
	owner   int8  // modified owner chip, -1 if clean
}

// Hierarchy is the shared (cross-core) part of the memory system: per-chip
// L2s, per-MCM L3s, and a MESI-flavoured directory that produces the
// Figure 9 data-source labels.
type Hierarchy struct {
	cfg  TopologyConfig
	l2   []*Cache  // per chip
	l3   []*Cache  // per MCM
	dir  *dirTable // the coherence directory
	mcms int

	recentStores *dirTable // lines recently stored to; sharers = storing chips (locks.go)
	storeRing    []uint64  // FIFO of tracked lines (deterministic eviction)
	storeRingPos int

	// Store fast-path state. Immediately after Store(chip, line) completes,
	// the line is resident in that chip's L2 in Modified state with no other
	// sharers, the directory entry reads {owner: chip, sharers: {chip}}, and
	// the line's recentStores record already carries the chip's bit (so the
	// FIFO ring is untouched by a re-record). A repeat store from the same
	// chip to such a line therefore changes nothing, provided nothing
	// disturbed that state in between:
	//
	//   - Load/FetchInst, PrefetchFill and ReservationLost can touch any
	//     line's L2 set, directory entry or reservation record, so they
	//     clear the whole ring (storeFastN = 0).
	//   - A slow-path store to another line only perturbs its own L2 set
	//     (Lookup refresh, install, eviction), its own directory and
	//     reservation entries — so it only drops ring entries that share
	//     the victim L2 set (an eviction also changes the set's contents).
	//   - A reservation-ledger eviction inside noteRemoteStore can delete
	//     any tracked line's record, so it clears the ring too.
	//
	// The skipped L2 LRU refresh is safe because, with its set untouched
	// since the entry's own store, that entry is still the set's most
	// recently used line, so re-touching it cannot change the relative
	// recency order replacement consults.
	storeFast     [4]storeFastEntry
	storeFastN    int
	storeFastChip int
	noFast        bool // disables the store fast path (reference behaviour)
}

// NewHierarchy builds the shared cache levels.
func NewHierarchy(cfg TopologyConfig) (*Hierarchy, error) {
	if cfg.Chips <= 0 || cfg.CoresPerChip <= 0 || cfg.ChipsPerMCM <= 0 {
		return nil, fmt.Errorf("power4: bad topology %+v", cfg)
	}
	mcms := (cfg.Chips + cfg.ChipsPerMCM - 1) / cfg.ChipsPerMCM
	h := &Hierarchy{
		cfg: cfg, dir: newDirTable(), mcms: mcms,
		recentStores: newDirTable(), storeRing: make([]uint64, 0, reservationWindow),
	}
	for i := 0; i < cfg.Chips; i++ {
		c, err := NewCache(cfg.L2)
		if err != nil {
			return nil, err
		}
		h.l2 = append(h.l2, c)
	}
	for i := 0; i < mcms; i++ {
		c, err := NewCache(cfg.L3)
		if err != nil {
			return nil, err
		}
		h.l3 = append(h.l3, c)
	}
	return h, nil
}

// Cores returns the total number of cores.
func (h *Hierarchy) Cores() int { return h.cfg.Chips * h.cfg.CoresPerChip }

// ChipOf maps a core id to its chip.
func (h *Hierarchy) ChipOf(core int) int { return core / h.cfg.CoresPerChip }

// MCMOf maps a chip id to its MCM.
func (h *Hierarchy) MCMOf(chip int) int { return chip / h.cfg.ChipsPerMCM }

func (h *Hierarchy) lineOf(ra uint64) uint64 { return ra >> 7 } // 128-byte coherence granule

// Load services a load that missed the requesting core's L1, returning the
// data source label. ra is the real address.
func (h *Hierarchy) Load(core int, ra uint64) DataSource {
	h.storeFastN = 0
	chip := h.ChipOf(core)
	mcm := h.MCMOf(chip)
	line := h.lineOf(ra)

	if h.l2[chip].Lookup(ra) {
		h.noteSharer(line, chip)
		return SrcL2
	}

	// Remote L2s (cache-to-cache transfer).
	for c := 0; c < h.cfg.Chips; c++ {
		if c == chip || !h.l2[c].Probe(ra) {
			continue
		}
		st := h.dir.get(line)
		modified := st != nil && st.owner == int8(c)
		sameMCM := h.MCMOf(c) == mcm
		// The transfer downgrades a modified line to shared and installs a
		// copy in the requester's L2.
		if st != nil {
			st.owner = -1
		}
		h.installL2(chip, ra, line)
		switch {
		case sameMCM && modified:
			return SrcL25Mod
		case sameMCM:
			return SrcL25Shr
		case modified:
			return SrcL275Mod
		default:
			return SrcL275Shr
		}
	}

	// MCM-local L3.
	if h.l3[mcm].Lookup(ra) {
		h.installL2(chip, ra, line)
		return SrcL3
	}
	// Remote L3s.
	for m := 0; m < h.mcms; m++ {
		if m == mcm {
			continue
		}
		if h.l3[m].Probe(ra) {
			h.installL2(chip, ra, line)
			return SrcL35
		}
	}
	// Memory: fill L3 and L2 on the way in.
	h.insertL3(mcm, ra)
	h.installL2(chip, ra, line)
	return SrcMem
}

// Store services a store from core to real address ra: the line is brought
// to the owning chip's L2 in Modified state and all other copies are
// invalidated (the L1 is write-through/no-allocate, so every store reaches
// the L2 — the coherence point of the system).
// It reports whether the store missed the chip's L2.
func (h *Hierarchy) Store(core int, ra uint64) (l2Miss bool) {
	chip := h.ChipOf(core)
	line := h.lineOf(ra)
	if !h.noFast && chip == h.storeFastChip {
		for i := 0; i < h.storeFastN; i++ {
			if h.storeFast[i].line == line {
				// Provable no-op: see the storeFast field comment. The slow
				// path below would hit the chip's own L2 and find nothing to
				// invalidate or record, so the result is always "no L2 miss".
				return false
			}
		}
	}
	hit := h.l2[chip].Lookup(ra)
	var st *lineState
	if !hit {
		st = h.installL2(chip, ra, line)
	} else {
		st = h.dir.getOrCreate(line)
	}
	// Invalidate every other chip's copy.
	for c := 0; c < h.cfg.Chips; c++ {
		if c == chip {
			continue
		}
		if st.sharers&(1<<uint(c)) != 0 {
			h.l2[c].Invalidate(ra)
			st.sharers &^= 1 << uint(c)
		}
	}
	st.sharers |= 1 << uint(chip)
	st.owner = int8(chip)
	h.noteRemoteStore(chip, line)
	h.recordStoreFast(chip, line)
	return !hit
}

// recordStoreFast updates the fast-path ring after a slow-path store of
// line by chip: entries whose L2 set this store may have perturbed are
// dropped, then the line is appended (evicting the oldest on overflow).
func (h *Hierarchy) recordStoreFast(chip int, line uint64) {
	if h.noFast {
		h.storeFastN = 0
		return
	}
	if chip != h.storeFastChip {
		h.storeFastN = 0
		h.storeFastChip = chip
	}
	set := line & (h.l2[chip].sets - 1)
	n := 0
	for i := 0; i < h.storeFastN; i++ {
		if h.storeFast[i].set != set {
			h.storeFast[n] = h.storeFast[i]
			n++
		}
	}
	if n == len(h.storeFast) {
		copy(h.storeFast[:], h.storeFast[1:])
		n--
	}
	h.storeFast[n] = storeFastEntry{line: line, set: set}
	h.storeFastN = n + 1
}

// SetFastPaths enables or disables the hierarchy's state-skipping store
// fast path (the storeFast ring). Results are identical either way;
// disabling it runs every store through the full coherence walk, the
// reference the equivalence tests compare against. It returns the
// previous setting.
func (h *Hierarchy) SetFastPaths(enabled bool) bool {
	prev := !h.noFast
	h.noFast = !enabled
	h.storeFastN = 0
	return prev
}

// FetchInst services an instruction fetch that missed the core's L1 I-cache
// and returns the level it was satisfied from, collapsed to the L2/L3/MEM
// buckets the instruction-source HPM events distinguish.
func (h *Hierarchy) FetchInst(core int, ra uint64) DataSource {
	src := h.Load(core, ra)
	switch src {
	case SrcL25Shr, SrcL25Mod, SrcL275Shr, SrcL275Mod:
		return SrcL2 // remote-L2 fills count as L2-class for the I-side events
	case SrcL35:
		return SrcL3
	default:
		return src
	}
}

// PrefetchFill installs a prefetched line into the chip's L2 (and L3 for
// deep prefetches) without demand-access accounting.
func (h *Hierarchy) PrefetchFill(core int, ra uint64, deep bool) {
	h.storeFastN = 0
	chip := h.ChipOf(core)
	h.installL2(chip, ra, h.lineOf(ra))
	if deep {
		h.insertL3(h.MCMOf(chip), ra)
	}
}

func (h *Hierarchy) noteSharer(line uint64, chip int) {
	if st := h.dir.get(line); st != nil {
		st.sharers |= 1 << uint(chip)
	}
}

func (h *Hierarchy) installL2(chip int, ra, line uint64) *lineState {
	evicted, had := h.l2[chip].Insert(ra)
	st := h.dir.getOrCreate(line)
	st.sharers |= 1 << uint(chip)
	if had {
		// The victim is never line itself (Insert returns early when the
		// line is already resident), so st stays valid across the evict.
		h.onL2Evict(chip, evicted)
	}
	return st
}

// onL2Evict maintains the directory and spills the victim into the L3
// (victim-cache style, as on POWER4 where the L3 holds L2 castouts).
func (h *Hierarchy) onL2Evict(chip int, evictedAddr uint64) {
	line := h.lineOf(evictedAddr)
	if st := h.dir.get(line); st != nil {
		st.sharers &^= 1 << uint(chip)
		if st.owner == int8(chip) {
			st.owner = -1
		}
		if st.sharers == 0 {
			h.dir.del(line)
		}
	}
	h.insertL3(h.MCMOf(chip), evictedAddr)
}

func (h *Hierarchy) insertL3(mcm int, ra uint64) {
	h.l3[mcm].Insert(ra)
}

// DirectorySize returns the number of tracked lines (bounded by total L2
// capacity; used by invariant tests).
func (h *Hierarchy) DirectorySize() int { return h.dir.live }

// L2 exposes a chip's L2 cache for tests.
func (h *Hierarchy) L2(chip int) *Cache { return h.l2[chip] }

// L3 exposes an MCM's L3 cache for tests.
func (h *Hierarchy) L3(mcm int) *Cache { return h.l3[mcm] }
