package mem

// RunaheadCache buffers the data of stores that pseudo-retire during runahead
// mode (Mutlu et al., HPCA'03, as summarised in §2.1 of the SPECRUN paper).
// Runahead stores must not reach architectural memory — they are discarded on
// runahead exit — but younger runahead loads need to observe them to compute
// further addresses.  Each byte carries an INV bit so that poisoned store
// data poisons dependent loads.
//
// The structure models the hardware budget directly: a fixed open-addressed
// byte store (linear probing) with an epoch tag per slot, plus a FIFO ring of
// insertion addresses for eviction.  When full, new writes evict the oldest
// buffered byte — the same insertion-order policy the previous map-based
// implementation used (the real hardware is a tiny 512B cache; precision of
// the eviction policy is irrelevant to the attack and performance shapes).
// Clear is O(1): bumping the epoch invalidates every slot, so the per-episode
// reset that runahead exit performs costs nothing, and no allocation ever
// happens after construction.
type RunaheadCache struct {
	cap   int      // byte capacity (the hardware budget)
	mask  uint64   // len(slots)-1; len is a power of two
	slots []raSlot // open-addressed byte store
	live  int      // buffered bytes in the current epoch
	dead  int      // tombstones in the current epoch (evicted slots)
	epoch uint64   // current generation; slots from older epochs are free

	order   []uint64 // FIFO ring of buffered byte addresses (eviction order)
	ordHead int
	scratch []raSlot // reused by compact(); no steady-state allocation

	Writes uint64
	Reads  uint64
}

// slot states, meaningful only when the slot's epoch is current.
const (
	raFree uint8 = iota
	raLive
	raDead // evicted (tombstone): keeps probe chains intact until compaction
)

type raSlot struct {
	addr  uint64
	epoch uint64
	b     byte
	inv   bool
	state uint8
}

// NewRunaheadCache returns a runahead cache bounded to capBytes bytes.
func NewRunaheadCache(capBytes int) *RunaheadCache {
	// Size the table to 4× capacity (next power of two): with live ≤ cap the
	// load factor stays ≤ 1/4 plus tombstones, keeping probe chains short.
	n := 1
	for n < 4*capBytes {
		n <<= 1
	}
	return &RunaheadCache{
		cap:     capBytes,
		mask:    uint64(n - 1),
		slots:   make([]raSlot, n),
		order:   make([]uint64, capBytes),
		scratch: make([]raSlot, 0, capBytes),
	}
}

// Cap reports the byte capacity.
func (rc *RunaheadCache) Cap() int { return rc.cap }

func (rc *RunaheadCache) hash(addr uint64) uint64 {
	// Fibonacci hashing; byte addresses are dense and sequential.
	return (addr * 0x9e3779b97f4a7c15) >> 32 & rc.mask
}

// find returns the slot holding addr in the current epoch, or nil.
func (rc *RunaheadCache) find(addr uint64) *raSlot {
	for i := rc.hash(addr); ; i = (i + 1) & rc.mask {
		s := &rc.slots[i]
		if s.epoch != rc.epoch || s.state == raFree {
			return nil
		}
		if s.state == raLive && s.addr == addr {
			return s
		}
	}
}

// insertSlot claims a slot for addr (which must not be present).
func (rc *RunaheadCache) insertSlot(addr uint64) *raSlot {
	if rc.live+rc.dead >= len(rc.slots)/2 {
		rc.compact()
	}
	for i := rc.hash(addr); ; i = (i + 1) & rc.mask {
		s := &rc.slots[i]
		if s.epoch != rc.epoch || s.state != raLive {
			if s.epoch == rc.epoch && s.state == raDead {
				rc.dead--
			}
			s.addr = addr
			s.epoch = rc.epoch
			s.state = raLive
			rc.live++
			return s
		}
	}
}

// compact rewrites the table without tombstones (same epoch contents).  It
// runs only when evictions have filled half the table with tombstones —
// never in the common episode whose writes fit the budget.
func (rc *RunaheadCache) compact() {
	rc.scratch = rc.scratch[:0]
	for i := range rc.slots {
		s := &rc.slots[i]
		if s.epoch == rc.epoch && s.state == raLive {
			rc.scratch = append(rc.scratch, *s)
		}
	}
	rc.epoch++
	rc.live, rc.dead = 0, 0
	for i := range rc.scratch {
		e := &rc.scratch[i]
		s := rc.insertSlot(e.addr)
		s.b, s.inv = e.b, e.inv
	}
}

// evictOldest drops the least recently inserted byte.
func (rc *RunaheadCache) evictOldest() {
	victim := rc.order[rc.ordHead]
	rc.ordHead = (rc.ordHead + 1) % len(rc.order)
	if s := rc.find(victim); s != nil {
		s.state = raDead
		rc.live--
		rc.dead++
	}
}

// Write stores the low size bytes of v at addr.  inv marks the data as
// poisoned (store with an INV source).
func (rc *RunaheadCache) Write(addr uint64, size int, v uint64, inv bool) {
	rc.Writes++
	for i := 0; i < size; i++ {
		a := addr + uint64(i)
		s := rc.find(a)
		if s == nil {
			if rc.live >= rc.cap {
				rc.evictOldest()
			}
			s = rc.insertSlot(a)
			// The order ring has exactly cap slots and live < cap here, so
			// the tail position is free.
			rc.order[(rc.ordHead+rc.live-1)%len(rc.order)] = a
		}
		s.b = byte(v >> (8 * i))
		s.inv = inv
	}
}

// Read fetches size bytes at addr.  present is true only if every byte is
// buffered here; inv is true if any byte is poisoned.
func (rc *RunaheadCache) Read(addr uint64, size int) (v uint64, present, inv bool) {
	rc.Reads++
	present = true
	for i := 0; i < size; i++ {
		s := rc.find(addr + uint64(i))
		if s == nil {
			return 0, false, false
		}
		v |= uint64(s.b) << (8 * i)
		inv = inv || s.inv
	}
	return v, present, inv
}

// Covers reports whether any byte of [addr, addr+size) is buffered; such
// loads cannot simply bypass to memory.
func (rc *RunaheadCache) Covers(addr uint64, size int) bool {
	for i := 0; i < size; i++ {
		if rc.find(addr+uint64(i)) != nil {
			return true
		}
	}
	return false
}

// Clear empties the cache (on runahead exit).  O(1): the epoch bump retires
// every slot at once.
func (rc *RunaheadCache) Clear() {
	rc.epoch++
	rc.live, rc.dead = 0, 0
	rc.ordHead = 0
}

// Reset returns the cache to its just-constructed state (machine reuse).
func (rc *RunaheadCache) Reset() {
	rc.Clear()
	rc.Writes, rc.Reads = 0, 0
}

// Len reports the number of buffered bytes.
func (rc *RunaheadCache) Len() int { return rc.live }
