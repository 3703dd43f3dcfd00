// Package branch implements the front-end branch prediction structures of
// the simulated processor: the two-level adaptive direction predictor from
// Table 1 of the paper, a branch target buffer (BTB) for indirect jumps and
// calls, and a return stack buffer (RSB) for returns.
//
// These are precisely the structures the SPECRUN attack variants poison:
// SpectrePHT trains the direction predictor, SpectreBTB aliases BTB entries,
// and SpectreRSB desynchronises the RSB from the architectural stack.
//
// The pattern history table and BTB are trained at retirement only (so
// wrong-path execution cannot train them), while the global history register
// and RSB are updated speculatively at fetch and repaired from checkpoints on
// misprediction recovery — the same split used by real out-of-order cores.
package branch

import "fmt"

// Config sizes the prediction structures.
type Config struct {
	HistoryBits int `json:"history_bits"` // global history register width
	PHTSize     int `json:"pht_size"`     // number of 2-bit counters (power of two)
	BTBSets     int `json:"btb_sets"`     // power of two
	BTBAssoc    int `json:"btb_assoc"`
	BTBTagBits  int `json:"btb_tag_bits"` // partial-tag width; 0 means full tags (no aliasing)
	RSBSize     int `json:"rsb_size"`
}

// DefaultConfig returns the configuration used for Table 1's "two-level
// adaptive predictor" (sizes follow common Multi2Sim defaults).
func DefaultConfig() Config {
	return Config{
		HistoryBits: 12,
		PHTSize:     4096,
		BTBSets:     128,
		BTBAssoc:    4,
		BTBTagBits:  0, // full tags by default; attack configs narrow this
		RSBSize:     16,
	}
}

type btbEntry struct {
	pc     uint64
	target uint64
	valid  bool
	lru    uint64
}

// Stats counts predictor events.
type Stats struct {
	CondPredicts    uint64
	CondMispredicts uint64
	BTBHits         uint64
	BTBMisses       uint64
	RSBPushes       uint64
	RSBPops         uint64
}

// Predictor bundles the direction predictor, BTB and RSB, holding both the
// speculative fetch-side state and the committed (architectural) state.
type Predictor struct {
	cfg Config

	pht      []uint8 // 2-bit saturating counters
	btb      []btbEntry
	btbClock uint64

	// Speculative fetch-side state.
	ghr    uint64
	rsb    []uint64
	rsbTop int

	// Committed state, rebuilt into the speculative state on a full flush.
	cghr    uint64
	crsb    []uint64
	crsbTop int

	Stats Stats
}

// New builds a predictor from cfg.
func New(cfg Config) *Predictor {
	if cfg.PHTSize <= 0 || cfg.PHTSize&(cfg.PHTSize-1) != 0 {
		panic(fmt.Sprintf("branch: PHT size %d not a power of two", cfg.PHTSize))
	}
	if cfg.BTBSets <= 0 || cfg.BTBSets&(cfg.BTBSets-1) != 0 {
		panic(fmt.Sprintf("branch: BTB sets %d not a power of two", cfg.BTBSets))
	}
	if cfg.RSBSize <= 0 {
		panic("branch: RSB size must be positive")
	}
	p := &Predictor{
		cfg:  cfg,
		pht:  make([]uint8, cfg.PHTSize),
		btb:  make([]btbEntry, cfg.BTBSets*cfg.BTBAssoc),
		rsb:  make([]uint64, cfg.RSBSize),
		crsb: make([]uint64, cfg.RSBSize),
	}
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	return p
}

// Config returns the predictor configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) phtIndex(pc uint64) int {
	h := p.ghr & ((1 << p.cfg.HistoryBits) - 1)
	return int((pc/4 ^ h) & uint64(p.cfg.PHTSize-1))
}

// PredictCond predicts the direction of the conditional branch at pc using
// the current speculative history, and returns the PHT index used so the
// branch can train the same counter at retirement.  It also shifts the
// prediction into the speculative history.
func (p *Predictor) PredictCond(pc uint64) (taken bool, phtIdx int) {
	phtIdx = p.phtIndex(pc)
	taken = p.pht[phtIdx] >= 2
	p.Stats.CondPredicts++
	p.specShiftGHR(taken)
	return taken, phtIdx
}

func (p *Predictor) specShiftGHR(taken bool) {
	p.ghr <<= 1
	if taken {
		p.ghr |= 1
	}
	p.ghr &= (1 << p.cfg.HistoryBits) - 1
}

// TrainCond updates the 2-bit counter at phtIdx with the resolved direction.
// Called at retirement (or pseudo-retirement during runahead for branches
// with valid sources).
func (p *Predictor) TrainCond(phtIdx int, taken bool) {
	c := p.pht[phtIdx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.pht[phtIdx] = c
}

// RecordMispredict counts a direction/target misprediction.
func (p *Predictor) RecordMispredict() { p.Stats.CondMispredicts++ }

func (p *Predictor) btbSet(pc uint64) []btbEntry {
	idx := (pc / 4) & uint64(p.cfg.BTBSets-1)
	return p.btb[idx*uint64(p.cfg.BTBAssoc) : (idx+1)*uint64(p.cfg.BTBAssoc)]
}

// btbTag computes the (possibly partial) tag for pc.  Real BTBs store only a
// slice of the PC to save area; two addresses congruent modulo
// 4*BTBSets*2^BTBTagBits then share an entry — the aliasing SpectreBTB
// (Fig. 4a) exploits to train a victim branch from attacker code.
func (p *Predictor) btbTag(pc uint64) uint64 {
	t := pc / 4 >> uint(log2(p.cfg.BTBSets))
	if p.cfg.BTBTagBits > 0 {
		t &= (1 << uint(p.cfg.BTBTagBits)) - 1
	}
	return t
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// PredictIndirect looks up the BTB for the target of the indirect jump or
// call at pc.
func (p *Predictor) PredictIndirect(pc uint64) (target uint64, ok bool) {
	set := p.btbSet(pc)
	tag := p.btbTag(pc)
	for i := range set {
		if set[i].valid && set[i].pc == tag {
			p.btbClock++
			set[i].lru = p.btbClock
			p.Stats.BTBHits++
			return set[i].target, true
		}
	}
	p.Stats.BTBMisses++
	return 0, false
}

// TrainBTB records the resolved target for pc.  BTB indexing uses PC bits
// only, so two code addresses that are congruent modulo BTBSets*4 alias —
// the property SpectreBTB exploits for cross-domain training.
func (p *Predictor) TrainBTB(pc, target uint64) {
	set := p.btbSet(pc)
	tag := p.btbTag(pc)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].pc == tag {
			victim = i
			goto store
		}
	}
	for i := range set {
		if !set[i].valid {
			victim = i
			goto store
		}
	}
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
store:
	p.btbClock++
	set[victim] = btbEntry{pc: tag, target: target, valid: true, lru: p.btbClock}
}

// PushRSB records a speculative return address at fetch time (CALL).
func (p *Predictor) PushRSB(retAddr uint64) {
	p.rsb[p.rsbTop] = retAddr
	p.rsbTop = (p.rsbTop + 1) % p.cfg.RSBSize
	p.Stats.RSBPushes++
}

// PopRSB predicts the target of a return.  The RSB is a circular buffer: on
// underflow it wraps and serves stale entries, exactly the behaviour
// ret2spec-style attacks rely on.
func (p *Predictor) PopRSB() uint64 {
	p.rsbTop = (p.rsbTop - 1 + p.cfg.RSBSize) % p.cfg.RSBSize
	p.Stats.RSBPops++
	return p.rsb[p.rsbTop]
}

// Checkpoint captures the speculative history state (GHR + RSB) for
// per-branch recovery.
type Checkpoint struct {
	ghr    uint64
	rsbTop int
	rsb    []uint64
}

// Checkpoint snapshots the speculative state.
func (p *Predictor) Checkpoint() Checkpoint {
	var cp Checkpoint
	p.CheckpointInto(&cp)
	return cp
}

// CheckpointInto snapshots the speculative state into cp, reusing cp's RSB
// buffer when it is large enough.  The CPU's pooled uops carry their
// checkpoint buffers across reuse, so the per-branch snapshot allocates
// nothing in steady state.
func (p *Predictor) CheckpointInto(cp *Checkpoint) {
	cp.ghr = p.ghr
	cp.rsbTop = p.rsbTop
	if cap(cp.rsb) < len(p.rsb) {
		cp.rsb = make([]uint64, len(p.rsb))
	}
	cp.rsb = cp.rsb[:len(p.rsb)]
	copy(cp.rsb, p.rsb)
}

// Reset returns the predictor to its just-constructed state (machine reuse).
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 1 // weakly not-taken
	}
	for i := range p.btb {
		p.btb[i] = btbEntry{}
	}
	p.btbClock = 0
	p.ghr, p.cghr = 0, 0
	p.rsbTop, p.crsbTop = 0, 0
	for i := range p.rsb {
		p.rsb[i], p.crsb[i] = 0, 0
	}
	p.Stats = Stats{}
}

// Recycle returns a zeroed checkpoint that retains cp's RSB buffer, so a
// pooled holder can be cleared without losing the allocation.
func (cp Checkpoint) Recycle() Checkpoint { return Checkpoint{rsb: cp.rsb[:0]} }

// Restore rewinds the speculative state to cp (misprediction recovery).
func (p *Predictor) Restore(cp Checkpoint) {
	p.ghr = cp.ghr
	p.rsbTop = cp.rsbTop
	copy(p.rsb, cp.rsb)
}

// FixLast replaces the most recent speculative history bit with the resolved
// direction.  Used on direction-misprediction recovery when the checkpoint
// was taken after the prediction shifted the wrong bit in.
func (p *Predictor) FixLast(taken bool) {
	p.ghr &^= 1
	if taken {
		p.ghr |= 1
	}
}

// Committed-state maintenance: called as branches retire so that a full
// pipeline flush (e.g. runahead exit) can rebuild the fetch-side state.

// CommitCond records a retired conditional branch direction.
func (p *Predictor) CommitCond(taken bool) {
	p.cghr <<= 1
	if taken {
		p.cghr |= 1
	}
	p.cghr &= (1 << p.cfg.HistoryBits) - 1
}

// CommitCall records a retired call.
func (p *Predictor) CommitCall(retAddr uint64) {
	p.crsb[p.crsbTop] = retAddr
	p.crsbTop = (p.crsbTop + 1) % p.cfg.RSBSize
}

// CommitRet records a retired return.
func (p *Predictor) CommitRet() {
	p.crsbTop = (p.crsbTop - 1 + p.cfg.RSBSize) % p.cfg.RSBSize
}

// SyncToCommitted rebuilds the speculative state from the committed state
// (full pipeline flush: runahead exit, fence, halt).
func (p *Predictor) SyncToCommitted() {
	p.ghr = p.cghr
	p.rsbTop = p.crsbTop
	copy(p.rsb, p.crsb)
}

// GHR exposes the speculative global history (tests only).
func (p *Predictor) GHR() uint64 { return p.ghr }

// CounterAt exposes a PHT counter value (tests only).
func (p *Predictor) CounterAt(idx int) uint8 { return p.pht[idx] }
