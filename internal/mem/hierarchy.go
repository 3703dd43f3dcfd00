package mem

import "fmt"

// Level identifies where in the hierarchy an access was served.
type Level uint8

const (
	LevelNone Level = iota
	LevelL1
	LevelL2
	LevelL3
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	default:
		return "none"
	}
}

// MarshalText renders the level as its String form, so configurations
// serialise to stable, human-readable JSON ("mem" rather than 4).
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses the String form (case-insensitive).
func (l *Level) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "none", "":
		*l = LevelNone
	case "L1", "l1":
		*l = LevelL1
	case "L2", "l2":
		*l = LevelL2
	case "L3", "l3":
		*l = LevelL3
	case "mem", "Mem", "MEM":
		*l = LevelMem
	default:
		return fmt.Errorf("mem: unknown level %q", s)
	}
	return nil
}

// Port selects the first-level cache used by an access.
type Port uint8

const (
	// PortI is the instruction-fetch port (L1 I-cache).
	PortI Port = iota
	// PortD is the data port (L1 D-cache).
	PortD
)

// Config describes the whole hierarchy.  The defaults follow Table 1 of the
// paper: 16KB 4-way L1s (2 cycles), 128KB 8-way L2 (8 cycles), 4MB 8-way L3
// (32 cycles), and a request-based contention model with a 200-cycle memory.
type Config struct {
	LineSize          int         `json:"line_size"`
	L1I               CacheConfig `json:"l1i"`
	L1D               CacheConfig `json:"l1d"`
	L2                CacheConfig `json:"l2"`
	L3                CacheConfig `json:"l3"`
	MemLatency        int         `json:"mem_latency"`         // DRAM access latency in cycles
	MemBusCycles      int         `json:"mem_bus_cycles"`      // per-request channel occupancy (contention)
	MemMaxOutstanding int         `json:"mem_max_outstanding"` // maximum in-flight memory requests (MSHR-like)
}

// DefaultConfig returns the Table 1 memory configuration.
func DefaultConfig() Config {
	return Config{
		LineSize:          64,
		L1I:               CacheConfig{Name: "L1I", Size: 16 << 10, Assoc: 4, Latency: 2},
		L1D:               CacheConfig{Name: "L1D", Size: 16 << 10, Assoc: 4, Latency: 2},
		L2:                CacheConfig{Name: "L2", Size: 128 << 10, Assoc: 8, Latency: 8},
		L3:                CacheConfig{Name: "L3", Size: 4 << 20, Assoc: 8, Latency: 32},
		MemLatency:        200,
		MemBusCycles:      4,
		MemMaxOutstanding: 16,
	}
}

// CacheEventKind classifies one hierarchy state change.
type CacheEventKind uint8

const (
	// CacheFill is a line installed into a level (demand fill, MSHR merge
	// target, prefetch or store drain alike — every install is a fill).
	CacheFill CacheEventKind = iota
	// CacheEvict is the victim a fill displaced from its set.
	CacheEvict
)

func (k CacheEventKind) String() string {
	if k == CacheEvict {
		return "evict"
	}
	return "fill"
}

// CacheEvent is one data-side cache state change: the residency transitions
// an attacker sharing the hierarchy could measure by probing.  Events carry
// no cycle numbers — the leak oracle compares event *sequences*, where pure
// timing shifts must not register as divergence.
type CacheEvent struct {
	Line  uint64         // line-aligned address
	Level Level          // level whose state changed
	Kind  CacheEventKind //
}

// SetObserver installs fn to receive one CacheEvent per data-side fill and
// per eviction it causes, in simulation order (nil removes it).  The hook
// survives Reset.  Instruction-side (PortI) traffic is not reported: the
// observation model is a data-cache prime-and-probe attacker.  Emission
// sites are nil-checked and pass values the simulation computed anyway, so
// a disabled tap changes nothing and allocates nothing.
func (h *Hierarchy) SetObserver(fn func(CacheEvent)) { h.obsFn = fn }

// Result reports the outcome of a timing access.
type Result struct {
	Done  uint64 // cycle at which the data is available
	Level Level  // level that served the access (LevelMem on a full miss)
}

// HierarchyStats aggregates memory-controller statistics.
type HierarchyStats struct {
	MemRequests uint64
	Writebacks  uint64
	Flushes     uint64
}

// Hierarchy is the full cache/memory timing model: split L1s, unified
// inclusive L2 and L3, and a contended memory channel.
type Hierarchy struct {
	cfg      Config
	l1i, l1d *Cache
	l2, l3   *Cache

	busFree  uint64   // next cycle the memory channel can accept a request
	inflight []uint64 // completion cycles of outstanding memory requests

	obsFn func(CacheEvent) // leak tap (SetObserver); kept across Reset

	Stats HierarchyStats
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("mem: line size %d is not a power of two", cfg.LineSize))
	}
	return &Hierarchy{
		cfg: cfg,
		l1i: NewCache(cfg.L1I, cfg.LineSize),
		l1d: NewCache(cfg.L1D, cfg.LineSize),
		l2:  NewCache(cfg.L2, cfg.LineSize),
		l3:  NewCache(cfg.L3, cfg.LineSize),
		// The outstanding-request window never exceeds MemMaxOutstanding
		// live entries plus the one being appended; sizing it up front keeps
		// memRequest allocation-free for the life of the hierarchy.
		inflight: make([]uint64, 0, cfg.MemMaxOutstanding+1),
	}
}

// Reset returns the hierarchy to its just-constructed state (machine reuse):
// cold caches, an idle channel and zeroed statistics.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	h.l3.Reset()
	h.busFree = 0
	h.inflight = h.inflight[:0]
	h.Stats = HierarchyStats{}
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// LineAddr aligns addr down to its cache line.
func (h *Hierarchy) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(h.cfg.LineSize-1)
}

// Caches returns the four cache levels (L1I, L1D, L2, L3) for stats readers.
func (h *Hierarchy) Caches() (l1i, l1d, l2, l3 *Cache) { return h.l1i, h.l1d, h.l2, h.l3 }

func (h *Hierarchy) l1(port Port) *Cache {
	if port == PortI {
		return h.l1i
	}
	return h.l1d
}

// memRequest reserves a memory-channel slot at or after earliest and returns
// the cycle the request starts service.  This is the "request-based
// contention model" from Table 1: requests serialise on channel occupancy
// and on the outstanding-request window.
func (h *Hierarchy) memRequest(earliest uint64) uint64 {
	// Drop completed requests from the outstanding window.
	live := h.inflight[:0]
	for _, d := range h.inflight {
		if d > earliest {
			live = append(live, d)
		}
	}
	h.inflight = live
	start := earliest
	if len(h.inflight) >= h.cfg.MemMaxOutstanding {
		oldest := h.inflight[0]
		for _, d := range h.inflight[1:] {
			if d < oldest {
				oldest = d
			}
		}
		if oldest > start {
			start = oldest
		}
	}
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.MemBusCycles)
	done := start + uint64(h.cfg.MemLatency)
	h.inflight = append(h.inflight, done)
	h.Stats.MemRequests++
	return done
}

// writeback models the channel occupancy of a dirty eviction: the write-back
// reserves the memory channel at or after the cycle the eviction happens
// (the incoming line's fill completion), exactly like memRequest reserves it
// for reads.  Reserving from the stale busFree instead would schedule the
// traffic in the past whenever the channel has been idle, and dirty-eviction
// storms would never contend with the demand misses that caused them.
func (h *Hierarchy) writeback(now uint64) {
	h.Stats.Writebacks++
	start := now
	if h.busFree > start {
		start = h.busFree
	}
	h.busFree = start + uint64(h.cfg.MemBusCycles)
}

// install inserts a line into one level, modelling the victim's write-back
// and — for observed (data-side) fills — reporting the fill and any eviction
// to the leak tap.
func (h *Hierarchy) install(c *Cache, lv Level, lineAddr, fillDone uint64, dirty, observe bool) {
	evicted, evictedDirty, had := c.Insert(lineAddr, fillDone, dirty)
	if had && evictedDirty {
		h.writeback(fillDone)
	}
	if observe && h.obsFn != nil {
		h.obsFn(CacheEvent{Line: lineAddr, Level: lv, Kind: CacheFill})
		if had {
			h.obsFn(CacheEvent{Line: evicted, Level: lv, Kind: CacheEvict})
		}
	}
}

// Access performs a timing access at cycle now.  On a miss the line is
// installed in every level (inclusive fill) with the fill-completion cycle;
// a second access to an in-flight line merges into the pending fill (MSHR
// behaviour).  Fills persist regardless of later pipeline squashes — this is
// the microarchitectural side channel.
func (h *Hierarchy) Access(port Port, addr, now uint64, write bool) Result {
	la := h.LineAddr(addr)
	l1 := h.l1(port)
	obs := port == PortD

	lat := now + uint64(l1.Config().Latency)
	if hit, ready := l1.Lookup(la, now); hit {
		if write {
			l1.SetDirty(la)
		}
		return Result{Done: maxU64(lat, ready), Level: LevelL1}
	}

	lat += uint64(h.l2.Config().Latency)
	if hit, ready := h.l2.Lookup(la, now); hit {
		done := maxU64(lat, ready)
		h.install(l1, LevelL1, la, done, write, obs)
		return Result{Done: done, Level: LevelL2}
	}

	lat += uint64(h.l3.Config().Latency)
	if hit, ready := h.l3.Lookup(la, now); hit {
		done := maxU64(lat, ready)
		h.install(h.l2, LevelL2, la, done, false, obs)
		h.install(l1, LevelL1, la, done, write, obs)
		return Result{Done: done, Level: LevelL3}
	}

	done := h.memRequest(lat)
	h.install(h.l3, LevelL3, la, done, false, obs)
	h.install(h.l2, LevelL2, la, done, false, obs)
	h.install(l1, LevelL1, la, done, write, obs)
	return Result{Done: done, Level: LevelMem}
}

// AccessNoFill computes the timing of an access without changing any cache
// state (no fills, no promotions, no LRU updates).  It is used by the secure
// runahead mode: loads issued during runahead must stay invisible in the
// hierarchy, so misses are timed (the memory request is real and contends for
// the channel) but the line is *not* installed — the caller places it in the
// SL cache instead.
func (h *Hierarchy) AccessNoFill(port Port, addr, now uint64) Result {
	la := h.LineAddr(addr)
	l1 := h.l1(port)

	lat := now + uint64(l1.Config().Latency)
	if ok, fill := l1.ProbeReady(la); ok {
		return Result{Done: maxU64(lat, fill), Level: LevelL1}
	}
	lat += uint64(h.l2.Config().Latency)
	if ok, fill := h.l2.ProbeReady(la); ok {
		return Result{Done: maxU64(lat, fill), Level: LevelL2}
	}
	lat += uint64(h.l3.Config().Latency)
	if ok, fill := h.l3.ProbeReady(la); ok {
		return Result{Done: maxU64(lat, fill), Level: LevelL3}
	}
	done := h.memRequest(lat)
	return Result{Done: done, Level: LevelMem}
}

// Flush evicts the line containing addr from every level (CLFLUSH).  It
// reports whether the line was present anywhere.
func (h *Hierarchy) Flush(addr uint64) bool {
	la := h.LineAddr(addr)
	any := false
	for _, c := range []*Cache{h.l1i, h.l1d, h.l2, h.l3} {
		if c.Invalidate(la) {
			any = true
		}
	}
	h.Stats.Flushes++
	return any
}

// HitLevel reports the highest level currently holding addr, without
// perturbing any state.  The harness uses it to inspect covert-channel
// residue; it is not visible to simulated programs.
func (h *Hierarchy) HitLevel(port Port, addr uint64) Level {
	la := h.LineAddr(addr)
	if h.l1(port).Probe(la) {
		return LevelL1
	}
	if h.l2.Probe(la) {
		return LevelL2
	}
	if h.l3.Probe(la) {
		return LevelL3
	}
	return LevelMem
}

// Present reports whether addr is cached at any level on the given port side.
func (h *Hierarchy) Present(port Port, addr uint64) bool {
	return h.HitLevel(port, addr) != LevelMem
}

// InvalidateAll cold-starts every cache (between experiment runs).
func (h *Hierarchy) InvalidateAll() {
	h.l1i.InvalidateAll()
	h.l1d.InvalidateAll()
	h.l2.InvalidateAll()
	h.l3.InvalidateAll()
	h.busFree = 0
	h.inflight = h.inflight[:0]
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
