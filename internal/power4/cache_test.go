package power4

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg CacheConfig) *Cache {
	t.Helper()
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small2Way() CacheConfig {
	return CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64, Repl: ReplLRU}
}

func TestCacheConfigValidate(t *testing.T) {
	bad := []CacheConfig{
		{},
		{Name: "x", SizeBytes: 1024, Ways: 0, LineBytes: 64},
		{Name: "x", SizeBytes: 1024, Ways: 2, LineBytes: 60},       // non power-of-two line
		{Name: "x", SizeBytes: 1024, Ways: 3, LineBytes: 64},       // lines % ways != 0
		{Name: "x", SizeBytes: 64 * 3 * 2, Ways: 2, LineBytes: 64}, // 3 sets
	}
	for i, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("case %d: bad config accepted: %+v", i, cfg)
		}
	}
	if _, err := NewCache(small2Way()); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := mustCache(t, small2Way())
	if c.Lookup(0x1000) {
		t.Fatal("cold cache hit")
	}
	c.Insert(0x1000)
	if !c.Lookup(0x1000) {
		t.Fatal("miss after insert")
	}
	// Same line, different offset.
	if !c.Lookup(0x103f) {
		t.Fatal("same-line offset missed")
	}
	// Next line.
	if c.Lookup(0x1040) {
		t.Fatal("adjacent line hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t, small2Way()) // 8 sets, 2 ways, 64B lines
	// Three lines mapping to the same set: set stride = 8*64 = 512.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Insert(a)
	c.Insert(b)
	c.Lookup(a) // a most recently used
	c.Insert(d) // must evict b
	if !c.Probe(a) {
		t.Fatal("LRU evicted the recently used line")
	}
	if c.Probe(b) {
		t.Fatal("LRU kept the least recently used line")
	}
	if !c.Probe(d) {
		t.Fatal("inserted line missing")
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	cfg := small2Way()
	cfg.Repl = ReplFIFO
	c := mustCache(t, cfg)
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Insert(a)
	c.Insert(b)
	// Touch a repeatedly: FIFO ignores recency.
	for i := 0; i < 10; i++ {
		c.Lookup(a)
	}
	c.Insert(d) // evicts a (first in)
	if c.Probe(a) {
		t.Fatal("FIFO kept the first-in line despite touches")
	}
	if !c.Probe(b) || !c.Probe(d) {
		t.Fatal("FIFO evicted the wrong line")
	}
}

func TestCacheInsertReturnsEviction(t *testing.T) {
	c := mustCache(t, small2Way())
	c.Insert(0)
	c.Insert(512)
	ev, was := c.Insert(1024)
	if !was {
		t.Fatal("expected an eviction")
	}
	if ev != 0 && ev != 512 {
		t.Fatalf("evicted %#x, want 0 or 512", ev)
	}
	// Re-inserting a resident line must not evict.
	if _, was := c.Insert(1024); was {
		t.Fatal("reinsert evicted")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := mustCache(t, small2Way())
	c.Insert(0x40)
	if !c.Invalidate(0x40) {
		t.Fatal("invalidate missed resident line")
	}
	if c.Probe(0x40) {
		t.Fatal("line still resident after invalidate")
	}
	if c.Invalidate(0x40) {
		t.Fatal("invalidate hit an absent line")
	}
}

func TestCacheProbeDoesNotTouchState(t *testing.T) {
	c := mustCache(t, small2Way())
	c.Insert(0)
	c.Insert(512)
	// Probing a must not make it MRU.
	for i := 0; i < 5; i++ {
		c.Probe(0)
	}
	// LRU order is insert order: inserting evicts line 0 if probes didn't refresh.
	// Touch b through Lookup so a is oldest regardless.
	c.Lookup(512)
	c.Insert(1024)
	if c.Probe(0) {
		t.Fatal("probe refreshed recency")
	}
}

func TestCacheMissRateAccounting(t *testing.T) {
	c := mustCache(t, small2Way())
	c.Lookup(0) // miss
	c.Insert(0)
	c.Lookup(0) // hit
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("MissRate = %v, want 0.5", got)
	}
	if (&Cache{cfg: small2Way()}).MissRate() != 0 {
		t.Fatal("empty cache MissRate should be 0")
	}
}

func TestCacheWorkingSetBehaviour(t *testing.T) {
	// A working set that fits must reach ~100% hits; one that is 4x the
	// capacity must keep missing. This is the mechanism behind the paper's
	// L2-pressure observation.
	c := mustCache(t, CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 2, LineBytes: 128, Repl: ReplFIFO})
	rng := rand.New(rand.NewSource(1))
	hits := func(span uint64, n int) float64 {
		h := 0
		for i := 0; i < n; i++ {
			addr := (rng.Uint64() % span) &^ 127
			if c.Lookup(addr) {
				h++
			} else {
				c.Insert(addr)
			}
		}
		return float64(h) / float64(n)
	}
	_ = hits(16<<10, 20000) // warm
	if r := hits(16<<10, 20000); r < 0.99 {
		t.Fatalf("fitting working set hit rate = %.3f, want ~1", r)
	}
	if r := hits(128<<10, 20000); r > 0.5 {
		t.Fatalf("4x working set hit rate = %.3f, want well below 1", r)
	}
}

// Property: after Insert(addr), Probe(addr) is always true, and the number
// of resident lines never exceeds capacity.
func TestCacheInsertProbeProperty(t *testing.T) {
	c := mustCache(t, small2Way())
	capacity := int(small2Way().SizeBytes / small2Way().LineBytes)
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			addr := uint64(a)
			c.Insert(addr)
			if !c.Probe(addr) {
				return false
			}
			if c.ResidentLines() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReplacementPolicyString(t *testing.T) {
	if ReplFIFO.String() != "FIFO" || ReplLRU.String() != "LRU" {
		t.Fatal("policy names wrong")
	}
}

func TestLineAddr(t *testing.T) {
	c := mustCache(t, small2Way())
	if c.LineAddr(0x12345) != 0x12340 {
		t.Fatalf("LineAddr = %#x", c.LineAddr(0x12345))
	}
}

// naiveCache is an independent model of Cache: the straightforward
// three-scan insert (existing copy, then a free way, then the victim by
// policy) and linear probes with no MRU hint. It is the oracle for
// TestCacheInsertMatchesNaive.
type naiveCache struct {
	sets, ways int
	shift      uint
	fifo       bool
	tags       []uint64
	valid      []bool
	lastUse    []uint64
	fifoPtr    []int
	tick       uint64
}

func newNaiveCache(cfg CacheConfig) *naiveCache {
	lines := int(cfg.SizeBytes / cfg.LineBytes)
	var shift uint
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	return &naiveCache{
		sets: lines / cfg.Ways, ways: cfg.Ways, shift: shift, fifo: cfg.Repl == ReplFIFO,
		tags: make([]uint64, lines), valid: make([]bool, lines), lastUse: make([]uint64, lines),
		fifoPtr: make([]int, lines/cfg.Ways),
	}
}

// find returns the set's base index and the index holding addr's line,
// or -1.
func (n *naiveCache) find(addr uint64) (line uint64, set, base, at int) {
	line = addr >> n.shift
	set = int(line % uint64(n.sets))
	base = set * n.ways
	for w := 0; w < n.ways; w++ {
		if n.valid[base+w] && n.tags[base+w] == line {
			return line, set, base, base + w
		}
	}
	return line, set, base, -1
}

func (n *naiveCache) lookup(addr uint64) bool {
	n.tick++
	_, _, _, at := n.find(addr)
	if at >= 0 {
		n.lastUse[at] = n.tick
	}
	return at >= 0
}

func (n *naiveCache) probe(addr uint64) bool {
	_, _, _, at := n.find(addr)
	return at >= 0
}

func (n *naiveCache) invalidate(addr uint64) bool {
	_, _, _, at := n.find(addr)
	if at >= 0 {
		n.valid[at] = false
	}
	return at >= 0
}

func (n *naiveCache) insert(addr uint64) (uint64, bool) {
	line, set, base, at := n.find(addr)
	if at >= 0 {
		n.lastUse[at] = n.tick
		return 0, false
	}
	for w := 0; w < n.ways; w++ {
		if i := base + w; !n.valid[i] {
			n.valid[i], n.tags[i], n.lastUse[i] = true, line, n.tick
			if n.fifo {
				n.fifoPtr[set] = (w + 1) % n.ways
			}
			return 0, false
		}
	}
	victim := 0
	if n.fifo {
		victim = n.fifoPtr[set]
		n.fifoPtr[set] = (victim + 1) % n.ways
	} else {
		for w := 1; w < n.ways; w++ {
			if n.lastUse[base+w] < n.lastUse[base+victim] {
				victim = w
			}
		}
	}
	i := base + victim
	ev := n.tags[i] << n.shift
	n.tags[i], n.lastUse[i] = line, n.tick
	return ev, true
}

func (n *naiveCache) resident() int {
	k := 0
	for _, v := range n.valid {
		if v {
			k++
		}
	}
	return k
}

// TestCacheInsertMatchesNaive drives Cache and naiveCache with the same
// random Lookup/Insert/Invalidate/Probe stream on LRU and FIFO caches of
// 1, 2, 4 and 8 ways, comparing every hit, every returned eviction and
// the resident line count. The address range is three times the
// capacity, so sets fill, evict and refill throughout.
func TestCacheInsertMatchesNaive(t *testing.T) {
	for _, repl := range []ReplacementPolicy{ReplLRU, ReplFIFO} {
		for _, ways := range []int{1, 2, 4, 8} {
			const sets, lineBytes = 16, 128
			cfg := CacheConfig{Name: "diff", SizeBytes: sets * uint64(ways) * lineBytes,
				Ways: ways, LineBytes: lineBytes, Repl: repl}
			c := mustCache(t, cfg)
			n := newNaiveCache(cfg)
			rng := rand.New(rand.NewSource(int64(ways)*10 + int64(repl)))
			span := int64(3 * sets * ways)
			var hits, evictions int
			for op := 0; op < 50_000; op++ {
				addr := uint64(rng.Int63n(span))*lineBytes + uint64(rng.Intn(lineBytes))
				switch r := rng.Intn(20); {
				case r < 7:
					got, want := c.Lookup(addr), n.lookup(addr)
					if got != want {
						t.Fatalf("%v/%d-way op %d: Lookup(%#x) = %v, naive %v", repl, ways, op, addr, got, want)
					}
					if got {
						hits++
					}
				case r < 14:
					gotEv, gotOK := c.Insert(addr)
					wantEv, wantOK := n.insert(addr)
					if gotEv != wantEv || gotOK != wantOK {
						t.Fatalf("%v/%d-way op %d: Insert(%#x) = (%#x, %v), naive (%#x, %v)",
							repl, ways, op, addr, gotEv, gotOK, wantEv, wantOK)
					}
					if gotOK {
						evictions++
					}
				case r < 16:
					if got, want := c.Invalidate(addr), n.invalidate(addr); got != want {
						t.Fatalf("%v/%d-way op %d: Invalidate(%#x) = %v, naive %v", repl, ways, op, addr, got, want)
					}
				default:
					if got, want := c.Probe(addr), n.probe(addr); got != want {
						t.Fatalf("%v/%d-way op %d: Probe(%#x) = %v, naive %v", repl, ways, op, addr, got, want)
					}
				}
				if got, want := c.ResidentLines(), n.resident(); got != want {
					t.Fatalf("%v/%d-way op %d: ResidentLines = %d, naive %d", repl, ways, op, got, want)
				}
			}
			if hits == 0 || evictions == 0 {
				t.Fatalf("%v/%d-way: weak stream (%d hits, %d evictions)", repl, ways, hits, evictions)
			}
		}
	}
}
