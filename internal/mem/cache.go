package mem

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name    string `json:"name"`
	Size    int    `json:"size"`    // total bytes
	Assoc   int    `json:"assoc"`   // ways per set
	Latency int    `json:"latency"` // access latency in cycles
}

// CacheStats counts cache events.
type CacheStats struct {
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	Invalidates uint64
}

// line is one cache way.  Validity is epoch-tagged: the line is present iff
// epoch matches the cache's current epoch, which makes InvalidateAll/Reset a
// counter bump instead of an O(size) clear (clearing the multi-megabyte L3
// array per machine Reset dominated whole-simulation profiles).  prev/next
// thread the line into its set's recency list.
type line struct {
	addr     uint64 // line-aligned address; the full address doubles as tag
	fillDone uint64 // cycle at which the fill data arrives (MSHR merge point)
	epoch    uint64 // valid iff == Cache.epoch (0 is never a live epoch)
	dirty    bool
	prev     int16 // way index of the next-more-recent line (-1 = MRU)
	next     int16 // way index of the next-less-recent line (-1 = LRU)
}

// Cache is one set-associative, LRU, write-back cache level.  It tracks tags
// and fill timing only; data lives in the functional Memory.
//
// Replacement is exact LRU — the LRU order is observable timing state (which
// victim a fill evicts decides later hits and misses), so approximations are
// off the table — but nothing scans: each set carries an intrusive
// doubly-linked recency list (head = MRU, tail = LRU), giving O(1) touch on
// hit and an O(1) victim on fill.  Set lists are themselves epoch-tagged and
// lazily re-initialised after an invalidation epoch bump.
type Cache struct {
	cfg      CacheConfig
	lineSize int
	numSets  int
	sets     []line // numSets * Assoc, laid out set-major

	// Per-set recency-list state, valid iff setEpoch matches epoch.
	mru, lru []int16 // way index of the most/least recently used line (-1 = empty)
	nvalid   []int16 // live lines in the set
	setEpoch []uint64

	epoch uint64 // current validity epoch; bumped by InvalidateAll

	Stats CacheStats
}

// Sets returns the number of sets the cache has with lines of lineSize
// bytes: Size / (Assoc * lineSize), rounded down.
func (cfg CacheConfig) Sets(lineSize int) int { return cfg.Size / (cfg.Assoc * lineSize) }

// NewCache builds a cache.  Size must be a multiple of Assoc*lineSize and the
// set count must be a power of two.
func NewCache(cfg CacheConfig, lineSize int) *Cache {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("mem: bad cache config %+v line %d", cfg, lineSize))
	}
	numSets := cfg.Sets(lineSize)
	if numSets <= 0 || numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("mem: %s: set count %d is not a power of two", cfg.Name, numSets))
	}
	return &Cache{
		cfg:      cfg,
		lineSize: lineSize,
		numSets:  numSets,
		sets:     make([]line, numSets*cfg.Assoc),
		mru:      make([]int16, numSets),
		lru:      make([]int16, numSets),
		nvalid:   make([]int16, numSets),
		setEpoch: make([]uint64, numSets),
		epoch:    1,
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

func (c *Cache) setIdx(lineAddr uint64) int {
	return int((lineAddr / uint64(c.lineSize)) & uint64(c.numSets-1))
}

func (c *Cache) set(lineAddr uint64) []line {
	idx := c.setIdx(lineAddr)
	return c.sets[idx*c.cfg.Assoc : (idx+1)*c.cfg.Assoc]
}

// initSet lazily resets a set's recency list after an epoch bump.
func (c *Cache) initSet(idx int) {
	if c.setEpoch[idx] != c.epoch {
		c.setEpoch[idx] = c.epoch
		c.mru[idx], c.lru[idx], c.nvalid[idx] = -1, -1, 0
	}
}

// findWay probes the set's tags for lineAddr and returns the way (-1 miss).
func (c *Cache) findWay(s []line, lineAddr uint64) int {
	for i := range s {
		if s[i].epoch == c.epoch && s[i].addr == lineAddr {
			return i
		}
	}
	return -1
}

// touch moves way w to the MRU head of set idx.
func (c *Cache) touch(idx int, s []line, w int) {
	if c.mru[idx] == int16(w) {
		return
	}
	c.unlink(idx, s, w)
	c.linkMRU(idx, s, w)
}

// unlink removes way w from set idx's recency list.
func (c *Cache) unlink(idx int, s []line, w int) {
	p, n := s[w].prev, s[w].next
	if p >= 0 {
		s[p].next = n
	} else {
		c.mru[idx] = n
	}
	if n >= 0 {
		s[n].prev = p
	} else {
		c.lru[idx] = p
	}
}

// linkMRU inserts way w at the MRU head of set idx's recency list.
func (c *Cache) linkMRU(idx int, s []line, w int) {
	h := c.mru[idx]
	s[w].prev, s[w].next = -1, h
	if h >= 0 {
		s[h].prev = int16(w)
	} else {
		c.lru[idx] = int16(w)
	}
	c.mru[idx] = int16(w)
}

// Lookup checks for lineAddr.  On a hit it updates LRU state and returns the
// cycle at which the data is available (later than now for an in-flight fill
// that a second miss merged into, i.e. an MSHR secondary miss).
func (c *Cache) Lookup(lineAddr, now uint64) (hit bool, readyAt uint64) {
	idx := c.setIdx(lineAddr)
	c.initSet(idx)
	s := c.sets[idx*c.cfg.Assoc : (idx+1)*c.cfg.Assoc]
	if w := c.findWay(s, lineAddr); w >= 0 {
		c.touch(idx, s, w)
		c.Stats.Hits++
		ready := now
		if s[w].fillDone > now {
			ready = s[w].fillDone
		}
		return true, ready
	}
	c.Stats.Misses++
	return false, 0
}

// Probe reports presence without perturbing LRU or statistics.  Used by the
// harness and by the secure runahead mode's side-effect-free checks.
func (c *Cache) Probe(lineAddr uint64) bool {
	return c.findWay(c.set(lineAddr), lineAddr) >= 0
}

// ProbeReady reports presence and the fill-completion cycle.
func (c *Cache) ProbeReady(lineAddr uint64) (present bool, fillDone uint64) {
	s := c.set(lineAddr)
	if w := c.findWay(s, lineAddr); w >= 0 {
		return true, s[w].fillDone
	}
	return false, 0
}

// Insert installs lineAddr with the given fill-completion cycle, evicting the
// LRU victim if needed.  It returns the evicted line address and whether the
// victim was dirty (for write-back traffic accounting).
func (c *Cache) Insert(lineAddr, fillDone uint64, dirty bool) (evicted uint64, evictedDirty, hadVictim bool) {
	idx := c.setIdx(lineAddr)
	c.initSet(idx)
	s := c.sets[idx*c.cfg.Assoc : (idx+1)*c.cfg.Assoc]
	if w := c.findWay(s, lineAddr); w >= 0 {
		// Refill of a resident line (e.g. write install racing a read miss
		// merge): merge into the existing entry instead of reinstalling.  The
		// resident entry is the primary fill, so its ready time is
		// authoritative — a merged secondary miss can never observe data
		// before the primary fill completes — and the line was filled once,
		// so Fills must not count again.
		c.touch(idx, s, w)
		s[w].dirty = s[w].dirty || dirty
		return 0, false, false
	}
	var victim int
	if int(c.nvalid[idx]) < len(s) {
		// A free way exists; which one is unobservable, so take the first.
		victim = -1
		for i := range s {
			if s[i].epoch != c.epoch {
				victim = i
				break
			}
		}
		c.nvalid[idx]++
	} else {
		victim = int(c.lru[idx])
		evicted, evictedDirty, hadVictim = s[victim].addr, s[victim].dirty, true
		c.unlink(idx, s, victim)
		c.Stats.Evictions++
	}
	s[victim] = line{addr: lineAddr, epoch: c.epoch, dirty: dirty, fillDone: fillDone}
	c.linkMRU(idx, s, victim)
	c.Stats.Fills++
	return evicted, evictedDirty, hadVictim
}

// SetDirty marks a present line dirty (store hit).
func (c *Cache) SetDirty(lineAddr uint64) {
	s := c.set(lineAddr)
	if w := c.findWay(s, lineAddr); w >= 0 {
		s[w].dirty = true
	}
}

// Invalidate removes lineAddr if present and reports whether it was.
func (c *Cache) Invalidate(lineAddr uint64) bool {
	idx := c.setIdx(lineAddr)
	c.initSet(idx)
	s := c.sets[idx*c.cfg.Assoc : (idx+1)*c.cfg.Assoc]
	if w := c.findWay(s, lineAddr); w >= 0 {
		c.unlink(idx, s, w)
		s[w].epoch = 0
		c.nvalid[idx]--
		c.Stats.Invalidates++
		return true
	}
	return false
}

// InvalidateAll empties the cache (used between simulations).  An epoch bump
// invalidates every line at once; set recency lists re-initialise lazily on
// first touch.
func (c *Cache) InvalidateAll() {
	c.epoch++
}

// Reset returns the cache to its just-constructed state: empty, with the
// statistics cleared, so a reused machine behaves byte-identically to a
// fresh one.
func (c *Cache) Reset() {
	c.InvalidateAll()
	c.Stats = CacheStats{}
}

// Occupancy reports the number of valid lines in the set holding lineAddr
// (for property tests: never exceeds associativity).
func (c *Cache) Occupancy(lineAddr uint64) int {
	idx := c.setIdx(lineAddr)
	if c.setEpoch[idx] != c.epoch {
		return 0
	}
	return int(c.nvalid[idx])
}
