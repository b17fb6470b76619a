// Package cache implements a set-associative write-back cache model and
// the four-level hierarchy of the paper's measurement machine (Intel
// Xeon E5-2650 v4: 32KB L1I, 32KB L1D, 256KB L2, 30MB shared LLC). It is
// driven either live from the instrumentation layer (the perf-counter
// substitute) or from recorded traces during pipeline replay.
package cache

import (
	"fmt"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	LatencyCyc int // hit latency in cycles
}

// Validate checks the configuration for structural soundness.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: invalid config %+v", c)
	}
	sets := c.SizeBytes / (LineSize * c.Assoc)
	if sets <= 0 {
		return fmt.Errorf("cache: %s size %d too small for assoc %d", c.Name, c.SizeBytes, c.Assoc)
	}
	return nil
}

// Stats accumulates per-level access statistics.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// lineShift is log2(LineSize): an address's line tag is addr>>lineShift.
const lineShift = 6

// Cache is one set-associative level. Way state is kept in parallel
// per-field arrays, set-major, so a lookup scans only the set's tags:
// at 8 ways that is 64 contiguous bytes, one host cache line. LRU
// timestamps and dirty bits are touched only on a hit's update or a
// miss's victim choice.
type Cache struct {
	cfg   Config
	assoc int
	sets  uint64
	pow2  bool     // sets is a power of two: index with mask
	mask  uint64   // sets-1
	keys  []uint64 // sets × assoc: line tag+1, 0 for an invalid way
	lru   []uint64 // per-way last-access clock, larger is more recent; 0 while invalid
	dirty []bool
	clock uint64
	stats Stats
}

// New builds a cache level from its configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (LineSize * cfg.Assoc)
	n := sets * cfg.Assoc
	return &Cache{
		cfg:   cfg,
		assoc: cfg.Assoc,
		sets:  uint64(sets),
		pow2:  sets&(sets-1) == 0,
		mask:  uint64(sets - 1),
		keys:  make([]uint64, n),
		lru:   make([]uint64, n),
		dirty: make([]bool, n),
	}, nil
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.keys)
	clear(c.lru)
	clear(c.dirty)
	c.clock = 0
	c.stats = Stats{}
}

// set returns the first way index of tag's set. Power-of-two set
// counts (L1D, L2) mask; others (the 24,576-set LLC) take the modulo.
func (c *Cache) set(tag uint64) int {
	if c.pow2 {
		return int(tag&c.mask) * c.assoc
	}
	return int(tag%c.sets) * c.assoc
}

// Access looks up the line containing addr. On a miss the line is
// filled (allocate-on-write too) and the victim's writeback is
// reported. Returns whether the access hit and whether a dirty victim
// was evicted.
func (c *Cache) Access(addr uint64, store bool) (hit, writeback bool) {
	c.clock++
	c.stats.Accesses++
	tag := addr >> lineShift
	key, base := tag+1, c.set(tag)
	for i, k := range c.keys[base : base+c.assoc] {
		if k == key {
			c.lru[base+i] = c.clock
			if store {
				c.dirty[base+i] = true
			}
			return true, false
		}
	}
	// Victim: the last invalid way (their clocks are all 0), else the
	// least recently used; valid clocks are distinct and nonzero.
	victim, oldest := 0, ^uint64(0)
	for i, t := range c.lru[base : base+c.assoc] {
		if t <= oldest {
			victim, oldest = i, t
		}
	}
	v := base + victim
	c.stats.Misses++
	// An invalid way is never dirty.
	writeback = c.dirty[v]
	if writeback {
		c.stats.Writebacks++
	}
	c.keys[v], c.lru[v], c.dirty[v] = key, c.clock, store
	return false, writeback
}

// Probe reports whether addr is resident without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> lineShift
	key, base := tag+1, c.set(tag)
	for _, k := range c.keys[base : base+c.assoc] {
		if k == key {
			return true
		}
	}
	return false
}

// XeonE52650v4 returns the per-core data hierarchy of the paper's
// machine: L1D 32KB/8-way, L2 256KB/8-way, LLC 30MB/20-way (shared; the
// single-core model gives one core the whole LLC, which matches the
// paper's single-threaded characterization runs).
func XeonE52650v4() (l1, l2, llc Config) {
	l1 = Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LatencyCyc: 4}
	l2 = Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LatencyCyc: 12}
	llc = Config{Name: "LLC", SizeBytes: 30 << 20, Assoc: 20, LatencyCyc: 38}
	return
}

// L1IConfig returns the instruction cache of the same machine.
func L1IConfig() Config {
	return Config{Name: "L1I", SizeBytes: 32 << 10, Assoc: 8, LatencyCyc: 4}
}

// MemLatency is the DRAM access latency in cycles.
const MemLatency = 220

// Hierarchy chains L1D→L2→LLC with inclusive fills and write-back
// propagation, exposing per-level statistics and per-access latency.
type Hierarchy struct {
	L1  *Cache
	L2  *Cache
	LLC *Cache
}

// NewHierarchy builds the three-level data hierarchy.
func NewHierarchy(l1, l2, llc Config) (*Hierarchy, error) {
	c1, err := New(l1)
	if err != nil {
		return nil, err
	}
	c2, err := New(l2)
	if err != nil {
		return nil, err
	}
	c3, err := New(llc)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{L1: c1, L2: c2, LLC: c3}, nil
}

// NewXeonHierarchy builds the paper machine's data hierarchy.
func NewXeonHierarchy() (*Hierarchy, error) {
	l1, l2, llc := XeonE52650v4()
	return NewHierarchy(l1, l2, llc)
}

// Access sends one access down the hierarchy and returns its latency in
// cycles.
func (h *Hierarchy) Access(addr uint64, store bool) int {
	if hit, _ := h.L1.Access(addr, store); hit {
		return h.L1.cfg.LatencyCyc
	}
	if hit, wb := h.L2.Access(addr, false); hit {
		_ = wb
		return h.L2.cfg.LatencyCyc
	}
	if hit, _ := h.LLC.Access(addr, false); hit {
		return h.LLC.cfg.LatencyCyc
	}
	return MemLatency
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.LLC.Reset()
}

// MPKI returns misses per kilo-instruction for each level given the
// retired instruction count.
func (h *Hierarchy) MPKI(instructions uint64) (l1, l2, llc float64) {
	if instructions == 0 {
		return 0, 0, 0
	}
	k := float64(instructions) / 1000
	return float64(h.L1.stats.Misses) / k,
		float64(h.L2.stats.Misses) / k,
		float64(h.LLC.stats.Misses) / k
}

// SpanAccess issues line-granular accesses covering [addr, addr+size)
// and returns the worst latency, modeling one memory instruction that
// may straddle a line boundary.
func (h *Hierarchy) SpanAccess(addr uint64, size int, store bool) int {
	if size <= 0 {
		size = 1
	}
	first := addr &^ (LineSize - 1)
	last := (addr + uint64(size) - 1) &^ (LineSize - 1)
	worst := 0
	for a := first; ; a += LineSize {
		if lat := h.Access(a, store); lat > worst {
			worst = lat
		}
		if a == last {
			break
		}
	}
	return worst
}
