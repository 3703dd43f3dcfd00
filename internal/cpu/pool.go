package cpu

import (
	"container/list"
	"runtime"
	"sync"

	"specrun/internal/asm"
	"specrun/internal/runahead"
)

// The machine pool lends Reset machines to callers that run a program to
// completion and keep only its results: core.RunProgramStats, every PoC run
// (attack.Run) and every Fig. 10 window run (attack.MeasureWindow).  The
// paper's drivers simulate dozens of programs on a handful of
// configurations, and rebuilding the multi-megabyte cache and predictor
// arrays per run dominated their allocation profile; with the pool a
// steady-state driver builds no machine at all.
//
// Machines are pooled by shape: the configuration with the three fields New
// never reads cleared (Runahead.Kind, Runahead.SkipINVBranch and
// Secure.Enabled).  The tick loop reads those from c.cfg, so lending a
// machine to any configuration of its shape is setting c.cfg and calling
// Reset.  Everything New sizes from (Mem, Branch, the queue sizes, the
// divider counts, RunaheadCacheBytes, SLEntries) stays in the key, which is
// the cleared Config value itself: every field is a comparable scalar, so
// two shapes are equal exactly when their canonical JSON is.  At most one
// machine per concurrent borrower per shape is live at a time.
//
// Any idle machine of a shape can be lent to any goroutine.  (A sync.Pool
// cannot promise that: a machine parked in one P's private slot is invisible
// to goroutines on other Ps, which cost a warm figure set one or two fresh
// machines.)  Idle machines still age out the way sync.Pool's do: every
// garbage collection demotes the idle list to a victim list and drops the
// previous victims, so a machine left idle across two collections becomes
// garbage.
//
// The pool set itself is a bounded LRU over shapes: a long-lived
// `specrun serve` answering grid sweeps can touch an unbounded number of
// distinct shapes, and each holds up to one ~3 MB machine per worker.
// Evicting the least-recently-used shape drops its idle machines; the next
// run of that shape simply rebuilds.  MachinePoolStats surfaces the
// counters on GET /v1/stats.
const machinePoolCap = 64

// shapePool holds the idle machines of one shape.
type shapePool struct {
	key    Config
	idle   []*CPU // returned since the last garbage collection
	victim []*CPU // idle across the last collection; dropped at the next
}

// pop takes an idle machine, most recently returned first, or nil.
func (p *shapePool) pop() *CPU {
	if c := popLast(&p.idle); c != nil {
		return c
	}
	return popLast(&p.victim)
}

func popLast(list *[]*CPU) *CPU {
	n := len(*list)
	if n == 0 {
		return nil
	}
	c := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return c
}

// machinePool is the LRU of shape pools.  One mutex guards the LRU and
// every shape's idle lists; it is held only to move pointers.
type machinePool struct {
	mu        sync.Mutex
	ll        *list.List // front = most recently used; values are *shapePool
	entries   map[Config]*list.Element
	evictions uint64
	// Reuse counters: a hit lent an idle machine, a miss built one.
	hits   uint64
	misses uint64
}

var machines = machinePool{
	ll:      list.New(),
	entries: make(map[Config]*list.Element, machinePoolCap),
}

// shape returns the pool for key, creating (and possibly evicting) as
// needed.  l.mu must be held.
func (l *machinePool) shape(key Config) *shapePool {
	if el, ok := l.entries[key]; ok {
		l.ll.MoveToFront(el)
		return el.Value.(*shapePool)
	}
	if len(l.entries) >= machinePoolCap {
		victim := l.ll.Back()
		l.ll.Remove(victim)
		delete(l.entries, victim.Value.(*shapePool).key)
		l.evictions++
	}
	p := &shapePool{key: key}
	l.entries[key] = l.ll.PushFront(p)
	return p
}

// age runs once per garbage collection: it drops the machines that stayed
// idle since the previous collection and demotes the rest.
func (l *machinePool) age() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for el := l.ll.Front(); el != nil; el = el.Next() {
		p := el.Value.(*shapePool)
		clear(p.victim)
		p.idle, p.victim = p.victim[:0], p.idle
	}
}

// gcTick carries the finalizer that ages the pool.  A finalizer runs once,
// after the first collection that finds its object unreachable, so each run
// arms a fresh tick for the next collection.  (16 bytes keeps it out of the
// tiny allocator, whose shared blocks delay finalizers.)
type gcTick struct{ _ [16]byte }

func armGCTick() {
	runtime.SetFinalizer(new(gcTick), func(*gcTick) {
		machines.age()
		armGCTick()
	})
}

func init() { armGCTick() }

// shapeOf returns cfg with the fields New never reads cleared: the pool key
// of cfg's machine shape.
func shapeOf(cfg Config) Config {
	cfg.Runahead.Kind = runahead.KindNone
	cfg.Runahead.SkipINVBranch = false
	cfg.Secure.Enabled = false
	return cfg
}

// PoolStats reports the machine pool's LRU state and reuse counters.
type PoolStats struct {
	Configs   int    `json:"configs"`   // machine shapes with a live pool
	Capacity  int    `json:"capacity"`  // LRU bound
	Evictions uint64 `json:"evictions"` // shapes dropped since process start
	Hits      uint64 `json:"hits"`      // runs that borrowed a warm machine
	Misses    uint64 `json:"misses"`    // runs that built a machine from scratch
}

// MachinePoolStats returns the current machine-pool counters.
func MachinePoolStats() PoolStats {
	machines.mu.Lock()
	defer machines.mu.Unlock()
	return PoolStats{
		Configs:   len(machines.entries),
		Capacity:  machinePoolCap,
		Evictions: machines.evictions,
		Hits:      machines.hits,
		Misses:    machines.misses,
	}
}

// Borrow lends an idle machine from the process-wide pool, configured as
// cfg and Reset onto prog, or builds one if no machine of cfg's shape is
// idle.  The machine has no taps installed (sampler, tracer, commit hook,
// observers, polling reference scheduler) and behaves exactly like
// New(cfg, prog).
//
// Hand it back with Release once its results are read, taking its
// statistics with StatsCopy.
func Borrow(cfg Config, prog *asm.Program) *CPU {
	machines.mu.Lock()
	p := machines.shape(shapeOf(cfg))
	c := p.pop()
	if c != nil {
		machines.hits++
	} else {
		machines.misses++
	}
	machines.mu.Unlock()
	if c == nil {
		c = New(cfg, prog)
		c.home = p
		return c
	}
	c.lend(cfg, prog)
	return c
}

// StatsCopy returns the machine's statistics sharing no buffer with it, so
// they stay valid after Release: the next borrower truncates and rewrites
// Stats().EpisodeReaches.
func (c *CPU) StatsCopy() Stats {
	st := c.stats
	st.EpisodeReaches = append([]uint64(nil), st.EpisodeReaches...)
	return st
}

// Release returns a machine obtained from Borrow to its pool; the caller
// must not touch it afterwards.  Release on a machine built by New does
// nothing.
func (c *CPU) Release() {
	if c.home == nil {
		return
	}
	machines.mu.Lock()
	c.home.idle = append(c.home.idle, c)
	machines.mu.Unlock()
}

// lend readies an idle machine for a borrower running prog under cfg, a
// configuration of the machine's shape: it removes every observation hook
// the previous borrower may have left and rewinds the machine.
func (c *CPU) lend(cfg Config, prog *asm.Program) {
	c.cfg = cfg
	c.sampleEvery, c.sampleFn = 0, nil
	c.traceFn, c.commitFn, c.obsFn = nil, nil, nil
	c.hier.SetObserver(nil)
	c.pollSched = false
	c.Reset(prog)
}
