package power4

import "fmt"

// ReplacementPolicy selects the victim way on a fill.
type ReplacementPolicy uint8

const (
	// ReplFIFO evicts in fill order; the POWER4 L1 D-cache uses FIFO.
	ReplFIFO ReplacementPolicy = iota
	// ReplLRU evicts the least recently used line.
	ReplLRU
)

// String names the policy.
func (r ReplacementPolicy) String() string {
	if r == ReplFIFO {
		return "FIFO"
	}
	return "LRU"
}

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes uint64
	Ways      int
	LineBytes uint64 // POWER4 uses 128-byte L1/L2 lines, 512-byte L3 lines
	Repl      ReplacementPolicy
}

// Validate checks the geometry.
func (c CacheConfig) Validate() error {
	if c.SizeBytes == 0 || c.Ways <= 0 || c.LineBytes == 0 {
		return fmt.Errorf("power4: cache %q has zero geometry", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("power4: cache %q line size %d not a power of two", c.Name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%uint64(c.Ways) != 0 {
		return fmt.Errorf("power4: cache %q: %d lines not divisible by %d ways", c.Name, lines, c.Ways)
	}
	sets := lines / uint64(c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("power4: cache %q set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Cache is a set-associative cache with configurable replacement. It tracks
// tags only (trace-driven simulation needs no data).
type Cache struct {
	cfg       CacheConfig
	sets      uint64
	lineShift uint
	tags      []uint64 // sets*ways entries
	valid     []bool
	fifoPtr   []uint32 // per set: next victim way under FIFO
	lastUse   []uint64 // per entry: tick of last touch under LRU
	mru       []uint32 // per set: way of the most recent hit (probe-order hint)
	tick      uint64

	accesses uint64
	misses   uint64
}

// NewCache builds a cache from cfg.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / uint64(cfg.Ways)
	var shift uint
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	n := int(lines)
	return &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		tags:      make([]uint64, n),
		valid:     make([]bool, n),
		fifoPtr:   make([]uint32, sets),
		lastUse:   make([]uint64, n),
		mru:       make([]uint32, sets),
	}, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

func (c *Cache) setIndex(line uint64) uint64 { return (line >> c.lineShift) & (c.sets - 1) }

// Lookup probes for addr, updating recency on a hit but never allocating.
// It returns true on hit.
func (c *Cache) Lookup(addr uint64) bool {
	c.tick++
	c.accesses++
	line := addr >> c.lineShift
	set := line & (c.sets - 1)
	base := int(set) * c.cfg.Ways
	// Probe the set's most recent hit way first. This changes only the
	// probe order, never the outcome or the recency state.
	if i := base + int(c.mru[set]); c.valid[i] && c.tags[i] == line {
		c.lastUse[i] = c.tick
		return true
	}
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.lastUse[i] = c.tick
			c.mru[set] = uint32(w)
			return true
		}
	}
	c.misses++
	return false
}

// Probe reports whether addr is resident without touching any state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & (c.sets - 1)
	base := int(set) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			return true
		}
	}
	return false
}

// Insert fills the line containing addr, evicting per policy. It returns
// the evicted line address and whether an eviction happened.
func (c *Cache) Insert(addr uint64) (evicted uint64, wasValid bool) {
	line := addr >> c.lineShift
	set := line & (c.sets - 1)
	base := int(set) * c.cfg.Ways
	// One pass finds an existing copy, the first free way, and the LRU
	// victim candidate together (the separate-scan version visited the
	// set up to three times).
	free := -1
	victim := base
	oldest := ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if !c.valid[i] {
			if free < 0 {
				free = i
			}
			continue
		}
		if c.tags[i] == line {
			c.lastUse[i] = c.tick
			c.mru[set] = uint32(w)
			return 0, false
		}
		if c.lastUse[i] < oldest {
			oldest = c.lastUse[i]
			victim = i
		}
	}
	if free >= 0 {
		c.valid[free] = true
		c.tags[free] = line
		c.lastUse[free] = c.tick
		c.mru[set] = uint32(free - base)
		if c.cfg.Repl == ReplFIFO {
			c.fifoPtr[set] = uint32((free - base + 1) % c.cfg.Ways)
		}
		return 0, false
	}
	if c.cfg.Repl == ReplFIFO {
		v := int(c.fifoPtr[set])
		c.fifoPtr[set] = uint32((v + 1) % c.cfg.Ways)
		victim = base + v
	}
	ev := c.tags[victim] << c.lineShift
	c.tags[victim] = line
	c.lastUse[victim] = c.tick
	c.mru[set] = uint32(victim - base)
	return ev, true
}

// Invalidate removes the line containing addr if present; reports whether
// it was resident.
func (c *Cache) Invalidate(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & (c.sets - 1)
	base := int(set) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.valid[i] = false
			return true
		}
	}
	return false
}

// MissRate returns lifetime misses/accesses through Lookup.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// ResidentLines returns how many lines are currently valid.
func (c *Cache) ResidentLines() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
