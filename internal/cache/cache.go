// Package cache implements the memory substrate: set-associative caches
// with LRU replacement and port limits, a two-level hierarchy with MSHRs,
// and the unified load/store queue with store-to-load forwarding that the
// paper's clustered backend shares across clusters.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the line size (power of two).
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int
	// ReadPorts and WritePorts bound same-cycle accesses; zero means
	// unlimited.
	ReadPorts, WritePorts int
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a positive power of two", sets)
	}
	return nil
}

type line struct {
	tag   uint64
	valid bool
	// lastUse orders lines for LRU; larger is more recent.
	lastUse uint64
}

// Stats accumulates cache event counts.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// Accesses returns hits + misses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Cache is a set-associative cache with true-LRU replacement. It models
// contents only (hit/miss); timing lives in Hierarchy.
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint
	setMask  uint64
	useClock uint64
	stats    Stats

	// per-cycle port accounting
	portCycle  int64
	readsUsed  int
	writesUsed int
}

// New builds a cache from a validated config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c := &Cache{cfg: cfg, sets: make([][]line, nsets)}
	// One flat backing array for all sets: building a simulated core is on
	// the experiment hot path, and per-set slices cost thousands of
	// allocations for a large L2.
	backing := make([]line, nsets*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	c.setShift = shift
	c.setMask = uint64(nsets - 1)
	return c, nil
}

// MustNew builds a cache, panicking on config errors. For tests.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) indexTag(addr uint64) (int, uint64) {
	lineAddr := addr >> c.setShift
	return int(lineAddr & c.setMask), lineAddr >> uint(popcount(c.setMask))
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// ReservePort claims a read or write port for the given cycle. It reports
// whether a port was available; failed reservations consume nothing.
func (c *Cache) ReservePort(cycle int64, write bool) bool {
	if cycle != c.portCycle {
		c.portCycle = cycle
		c.readsUsed, c.writesUsed = 0, 0
	}
	if write {
		if c.cfg.WritePorts > 0 && c.writesUsed >= c.cfg.WritePorts {
			return false
		}
		c.writesUsed++
		return true
	}
	if c.cfg.ReadPorts > 0 && c.readsUsed >= c.cfg.ReadPorts {
		return false
	}
	c.readsUsed++
	return true
}

// FreeReadPorts returns how many read ports are still free at cycle, or
// -1 when read ports are unlimited.
func (c *Cache) FreeReadPorts(cycle int64) int {
	if c.cfg.ReadPorts <= 0 {
		return -1
	}
	if cycle != c.portCycle {
		return c.cfg.ReadPorts
	}
	return c.cfg.ReadPorts - c.readsUsed
}

// Lookup probes for addr without filling. Touches LRU on hit.
func (c *Cache) Lookup(addr uint64) bool {
	set, tag := c.indexTag(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			c.useClock++
			ln.lastUse = c.useClock
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Contains probes for addr without touching statistics or LRU state
// (internal probes such as prefetch filtering).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.indexTag(addr)
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts the line holding addr, evicting the LRU way if needed.
// Returns whether an eviction of a valid line occurred.
func (c *Cache) Fill(addr uint64) bool {
	set, tag := c.indexTag(addr)
	victim := 0
	for i := range c.sets[set] {
		ln := &c.sets[set][i]
		if ln.valid && ln.tag == tag {
			// Already present (MSHR race); refresh LRU only.
			c.useClock++
			ln.lastUse = c.useClock
			return false
		}
		if !ln.valid {
			victim = i
			break
		}
		if c.sets[set][i].lastUse < c.sets[set][victim].lastUse {
			victim = i
		}
	}
	evicted := c.sets[set][victim].valid
	if evicted {
		c.stats.Evictions++
	}
	c.useClock++
	c.sets[set][victim] = line{tag: tag, valid: true, lastUse: c.useClock}
	return evicted
}

// LineAddr returns the line-aligned address of addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Reset restores post-construction state (between runs) without
// reallocating: the flat line backing is zeroed in place.
func (c *Cache) Reset() {
	for i := range c.sets {
		set := c.sets[i]
		for j := range set {
			set[j] = line{}
		}
	}
	c.useClock = 0
	c.stats = Stats{}
	c.portCycle = 0
	c.readsUsed, c.writesUsed = 0, 0
}
