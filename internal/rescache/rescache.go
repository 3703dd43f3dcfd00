// Package rescache is a bounded, content-addressed result cache for the
// simulation server.  Every SPECRUN simulation is fully deterministic — a
// (driver, config, params) triple always produces byte-identical output —
// so encoded results are memoized under a canonical hash key (see
// core.HashKey) in an LRU map, with singleflight deduplication: concurrent
// requests for the same key run the computation exactly once and all
// receive the same bytes.
package rescache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits       uint64     `json:"hits"`           // served from a stored entry (memory or disk)
	Misses     uint64     `json:"misses"`         // computations actually run
	Dedups     uint64     `json:"dedups"`         // callers coalesced onto an in-flight computation
	Evictions  uint64     `json:"evictions"`      // entries discarded by the LRU bound
	Entries    int        `json:"entries"`        // stored entries right now
	MaxEntries int        `json:"max_entries"`    // capacity bound
	HitRate    float64    `json:"hit_rate"`       // (hits+dedups) / lookups, 0 when idle
	Disk       *DiskStats `json:"disk,omitempty"` // persistent tier, when attached (see AttachDisk)
}

type entry struct {
	key string
	val []byte
}

// flight is one in-progress computation; waiters block on done.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// Cache is the bounded LRU content-addressed cache.  All methods are safe
// for concurrent use.
type Cache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used; values are *entry
	entries  map[string]*list.Element
	inflight map[string]*flight

	// disk is the optional persistent tier (AttachDisk): consulted after a
	// memory miss, written through on store.  diskDegraded records that an
	// attach failed, for Stats.
	disk         *diskStore
	diskDegraded bool

	hits, misses, dedups, evictions uint64
}

// New builds a cache bounded to max entries (max <= 0 selects 512).
func New(max int) *Cache {
	if max <= 0 {
		max = 512
	}
	return &Cache{
		max:      max,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// Do returns the cached bytes for key, or computes them: the first caller
// runs fn, concurrent callers for the same key wait for that one result
// (ctx aborts only the wait, never the computation), and a successful
// result is stored.  Errors are returned to every coalesced caller and not
// cached.  hit reports whether the bytes were served without running fn.
func (c *Cache) Do(ctx context.Context, key string, fn func() ([]byte, error)) (val []byte, hit bool, err error) {
	probedDisk := false
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			val = el.Value.(*entry).val
			c.mu.Unlock()
			return val, true, nil
		}
		if f, ok := c.inflight[key]; ok {
			c.dedups++
			c.mu.Unlock()
			select {
			case <-f.done:
				return f.val, true, f.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if d := c.disk; d != nil && !probedDisk {
			// Disk probe happens outside the lock (file IO), then the loop
			// re-checks: another caller may have promoted the entry or
			// registered a flight meanwhile.
			c.mu.Unlock()
			probedDisk = true
			if v, ok := d.get(key); ok {
				c.mu.Lock()
				c.hits++
				c.add(key, v)
				c.mu.Unlock()
				return v, true, nil
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		c.misses++
		c.mu.Unlock()

		f.val, f.err = runProtected(fn)

		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil {
			c.add(key, f.val)
		}
		c.mu.Unlock()
		if f.err == nil {
			c.diskPut(key, f.val)
		}
		close(f.done)
		return f.val, false, f.err
	}
}

// runProtected converts a panicking computation into an error.  Without
// this, a panic in fn would unwind past the bookkeeping above, leaving the
// flight registered forever — every later request for the key would block
// on a done channel that never closes.
func runProtected(fn func() ([]byte, error)) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rescache: computation panicked: %v", r)
		}
	}()
	return fn()
}

// Get returns the stored bytes for key, counting a hit or a miss.  With a
// disk tier attached, a memory miss falls through to disk, promoting the
// entry back into memory on a hit.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry).val
		c.mu.Unlock()
		return v, true
	}
	hasDisk := c.disk != nil
	c.mu.Unlock()
	if hasDisk {
		if v, ok := c.diskGet(key); ok {
			c.mu.Lock()
			c.hits++
			c.mu.Unlock()
			return v, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Add stores val under key (replacing any previous value) without counting
// a lookup, writing through to the disk tier when attached.  Used by the
// async job runner, which computes outside Do so a job cancellation never
// aborts co-waiting requests.
func (c *Cache) Add(key string, val []byte) {
	c.mu.Lock()
	c.add(key, val)
	c.mu.Unlock()
	c.diskPut(key, val)
}

// add inserts under c.mu, evicting from the LRU tail past the bound.
func (c *Cache) add(key string, val []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: val})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*entry).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Dedups:     c.dedups,
		Evictions:  c.evictions,
		Entries:    c.ll.Len(),
		MaxEntries: c.max,
	}
	d := c.disk
	degraded := c.diskDegraded
	c.mu.Unlock()
	if lookups := s.Hits + s.Dedups + s.Misses; lookups > 0 {
		s.HitRate = float64(s.Hits+s.Dedups) / float64(lookups)
	}
	if d != nil {
		s.Disk = d.snapshot()
	} else if degraded {
		s.Disk = &DiskStats{Degraded: true}
	}
	return s
}
