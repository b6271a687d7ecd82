// Package cache implements the memory-hierarchy substrate of the
// paper's system evaluation (Table III): set-associative caches with LRU
// replacement, write-back dirty tracking, and miss-status holding
// registers (MSHRs) with request merging.
//
// The many-core model (internal/manycore) characterizes workloads by
// MPKI, exactly as the paper's Table VI does; this package closes the
// loop by showing those MPKIs are realizable by real tag arrays: the
// cache-mpki experiment drives synthetic address streams through the
// Table III L1 and measures the same miss rates the catalog asserts.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// BlockBytes is the line size.
	BlockBytes int
}

// L1D returns the paper's per-core L1: 32 KB, 4-way, 64 B blocks.
func L1D() Config { return Config{SizeBytes: 32 << 10, Ways: 4, BlockBytes: 64} }

// L2Bank returns one bank of the shared L2: 256 KB, 16-way, 64 B blocks.
func L2Bank() Config { return Config{SizeBytes: 256 << 10, Ways: 16, BlockBytes: 64} }

func (c Config) validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.BlockBytes <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: block size %d not a power of two", c.BlockBytes)
	case c.SizeBytes%(c.Ways*c.BlockBytes) != 0:
		return fmt.Errorf("cache: size %d not divisible by ways*block", c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.BlockBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Accesses   int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// Cache is one set-associative, write-back, LRU cache.
type Cache struct {
	cfg        Config
	sets       int
	blockShift uint
	setMask    uint64
	tags       [][]uint64
	valid      [][]bool
	dirty      [][]bool
	order      [][]int // way indices, MRU first
	stats      Stats
}

// New builds a cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		tags:    make([][]uint64, sets),
		valid:   make([][]bool, sets),
		dirty:   make([][]bool, sets),
		order:   make([][]int, sets),
	}
	for b := cfg.BlockBytes; b > 1; b >>= 1 {
		c.blockShift++
	}
	for s := 0; s < sets; s++ {
		c.tags[s] = make([]uint64, cfg.Ways)
		c.valid[s] = make([]bool, cfg.Ways)
		c.dirty[s] = make([]bool, cfg.Ways)
		c.order[s] = make([]int, cfg.Ways)
		for w := range c.order[s] {
			c.order[s][w] = w
		}
	}
	return c, nil
}

// Result reports one access.
type Result struct {
	// Hit is true when the block was present.
	Hit bool
	// Evicted holds the victim block's address when a valid line was
	// replaced.
	Evicted uint64
	// Writeback is true when the victim was dirty.
	Writeback bool
}

// Block returns the block address (line-aligned) of an address.
func (c *Cache) Block(addr uint64) uint64 { return addr >> c.blockShift << c.blockShift }

// touch moves way to MRU position in set s.
func (c *Cache) touch(s, way int) {
	ord := c.order[s]
	for i, w := range ord {
		if w == way {
			copy(ord[1:i+1], ord[:i])
			ord[0] = way
			return
		}
	}
}

// Access performs one read or write, filling on miss and returning the
// eviction outcome.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.stats.Accesses++
	block := addr >> c.blockShift
	set := int(block & c.setMask)
	// The stored tag is the full block id; comparing it subsumes the
	// usual tag/set split.
	tag := block
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.touch(set, w)
			if write {
				c.dirty[set][w] = true
			}
			return Result{Hit: true}
		}
	}
	c.stats.Misses++
	// Fill into the LRU way.
	victim := c.order[set][c.cfg.Ways-1]
	res := Result{}
	if c.valid[set][victim] {
		c.stats.Evictions++
		res.Evicted = c.tags[set][victim] << c.blockShift
		if c.dirty[set][victim] {
			c.stats.Writebacks++
			res.Writeback = true
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.dirty[set][victim] = write
	c.touch(set, victim)
	return res
}

// Contains reports whether the block holding addr is cached, without
// disturbing LRU state.
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.blockShift
	set := int(block & c.setMask)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == block {
			return true
		}
	}
	return false
}

// Stats returns the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }
