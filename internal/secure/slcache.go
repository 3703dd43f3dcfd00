package secure

// SLCache is the Speculative Load cache of §6: an "L0" buffer that receives
// the lines fetched from memory by loads issued during runahead execution,
// instead of installing them into the regular hierarchy.  After the
// processor exits runahead mode, Algorithm 1 governs how entries drain:
//
//   - untainted entries (Btag = 0, or Btag = B{n,0} with Bn resolved
//     correctly) promote into L1 when next accessed;
//   - USL entries wait for their branch Bn to resolve; a correct prediction
//     promotes them, a misprediction deletes the entries related to Bn and
//     to Bn's inner branches (identified through IS);
//   - the counter C tracks residency so the processor stops probing the SL
//     cache once it has drained.
type SLCache struct {
	cap     int
	entries map[uint64]*SLEntry
	order   []uint64
	pool    []*SLEntry // freed entries, reused by Install

	victims []uint64 // scratch for DeleteRelated/PurgeUntagged

	Stats SLStats
}

// SLEntry is one buffered line.
type SLEntry struct {
	Line     uint64
	FillDone uint64
	Btag     Btag
	IS       TaintSet
	Tagged   bool // tags assigned at pseudo-retire; untagged entries are
	// conservative residue (squashed in-runahead paths) and are
	// purged at exit
}

// SLStats counts SL-cache events.
type SLStats struct {
	Installs uint64
	Hits     uint64
	Promoted uint64
	Deleted  uint64
	Purged   uint64
}

// NewSLCache returns an SL cache bounded to capEntries lines.
func NewSLCache(capEntries int) *SLCache {
	return &SLCache{cap: capEntries, entries: make(map[uint64]*SLEntry, capEntries)}
}

// C returns the residency counter (the paper's C): the number of entries
// currently buffered.
func (c *SLCache) C() int { return len(c.entries) }

// Install buffers a line fetched during runahead.  Re-installing an existing
// line refreshes its fill time.
func (c *SLCache) Install(line, fillDone uint64) *SLEntry {
	if e, ok := c.entries[line]; ok {
		if fillDone > e.FillDone {
			e.FillDone = fillDone
		}
		return e
	}
	if len(c.entries) >= c.cap {
		// Shift-truncate rather than reslice: order must keep its backing
		// array, or a long run of evictions grows it without bound.
		victim := c.order[0]
		copy(c.order, c.order[1:])
		c.order = c.order[:len(c.order)-1]
		if e := c.entries[victim]; e != nil {
			c.pool = append(c.pool, e)
		}
		delete(c.entries, victim)
	}
	e := c.newEntry(line, fillDone)
	c.entries[line] = e
	c.order = append(c.order, line)
	c.Stats.Installs++
	return e
}

// newEntry reuses a pooled entry if one is free.
func (c *SLCache) newEntry(line, fillDone uint64) *SLEntry {
	if n := len(c.pool); n > 0 {
		e := c.pool[n-1]
		c.pool = c.pool[:n-1]
		*e = SLEntry{Line: line, FillDone: fillDone}
		return e
	}
	return &SLEntry{Line: line, FillDone: fillDone}
}

// Tag attaches the taint-tracking verdict to a buffered line at
// pseudo-retirement.  Repeated tagging (two loads to one line) merges
// conservatively: IS accumulates and the earliest non-zero Btag wins.
func (c *SLCache) Tag(line uint64, tag Btag, is TaintSet) {
	e, ok := c.entries[line]
	if !ok {
		return
	}
	if !e.Tagged || (e.Btag.N == 0 && tag.N != 0) {
		e.Btag = tag
	}
	e.IS = e.IS.Union(is)
	e.Tagged = true
}

// Lookup finds a buffered line without removing it.
func (c *SLCache) Lookup(line uint64) (*SLEntry, bool) {
	e, ok := c.entries[line]
	if ok {
		c.Stats.Hits++
	}
	return e, ok
}

// Remove deletes a single line (after promotion into L1, or on CLFLUSH).
func (c *SLCache) Remove(line uint64) {
	e, ok := c.entries[line]
	if !ok {
		return
	}
	delete(c.entries, line)
	c.pool = append(c.pool, e)
	for i, l := range c.order {
		if l == line {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// Promote removes the line and counts it as promoted into L1.
func (c *SLCache) Promote(line uint64) {
	c.Remove(line)
	c.Stats.Promoted++
}

// DeleteRelated implements the misprediction arm of Algorithm 1: it deletes
// every entry related to branch n or to any branch nested inside n.  The
// inner predicate is supplied by the episode's Tracker.  It returns the
// number of entries deleted (the paper's d, which decrements C).
func (c *SLCache) DeleteRelated(n int, inner func(m, n int) bool) int {
	victims := c.victims[:0]
	for line, e := range c.entries {
		if c.relatedTo(e, n, inner) {
			victims = append(victims, line)
		}
	}
	for _, line := range victims {
		c.Remove(line)
		c.Stats.Deleted++
	}
	c.victims = victims[:0]
	return len(victims)
}

func (c *SLCache) relatedTo(e *SLEntry, n int, inner func(m, n int) bool) bool {
	if e.Btag.N == n || e.IS.Has(n) {
		return true
	}
	if inner == nil {
		return false
	}
	if e.Btag.N != 0 && inner(e.Btag.N, n) {
		return true
	}
	for _, m := range e.IS.Members() {
		if inner(m, n) {
			return true
		}
	}
	return false
}

// PurgeUntagged deletes entries that never pseudo-retired (wrong-path
// residue inside the runahead episode).  Called on runahead exit; the
// conservative choice is to treat them as unsafe.
func (c *SLCache) PurgeUntagged() int {
	victims := c.victims[:0]
	for line, e := range c.entries {
		if !e.Tagged {
			victims = append(victims, line)
		}
	}
	for _, line := range victims {
		c.Remove(line)
		c.Stats.Purged++
	}
	c.victims = victims[:0]
	return len(victims)
}

// Clear empties the cache (new runahead episode).
func (c *SLCache) Clear() {
	for _, e := range c.entries {
		c.pool = append(c.pool, e)
	}
	clear(c.entries)
	c.order = c.order[:0]
}

// Reset returns the cache to its just-constructed state (machine reuse).
func (c *SLCache) Reset() {
	c.Clear()
	c.Stats = SLStats{}
}
