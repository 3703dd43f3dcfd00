// Package runahead defines the runahead-execution policies of the simulated
// processor: the configuration shared by all variants, the register
// dependence table used by Precise Runahead (Naithani et al., HPCA'20) to
// identify stall slices, and the stride detector used by Vector Runahead
// (Naithani et al., ISCA'21) to vectorise prefetches.
//
// §4.3 of the SPECRUN paper argues the attack applies to all three variants
// because each of them lets the branch predictor steer speculation past
// branches whose predicate depends on the stalling load.  The implementations
// here preserve exactly the properties that argument relies on.
package runahead

import (
	"fmt"

	"specrun/internal/isa"
	"specrun/internal/mem"
)

// Kind selects a runahead variant.
type Kind int

const (
	// KindNone disables runahead execution (the baseline machine).
	KindNone Kind = iota
	// KindOriginal is Mutlu et al.'s HPCA'03 scheme: on a memory-level load
	// miss at the ROB head the whole instruction stream pseudo-retires
	// speculatively with INV poison tracking.
	KindOriginal
	// KindPrecise executes only stall slices (load-address back-slices),
	// plus loads, stores and branches; everything else is dropped at
	// dispatch and its destination poisoned.
	KindPrecise
	// KindVector additionally vectorises strided loads: each load issues
	// VectorLanes-1 extra prefetch requests along its detected stride.
	KindVector
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindOriginal:
		return "original"
	case KindPrecise:
		return "precise"
	case KindVector:
		return "vector"
	}
	return "unknown"
}

// MarshalText renders the kind as its String form, so configurations
// serialise to stable, human-readable JSON ("original" rather than 1).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the String form.
func (k *Kind) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "none", "":
		*k = KindNone
	case "original":
		*k = KindOriginal
	case "precise":
		*k = KindPrecise
	case "vector":
		*k = KindVector
	default:
		return fmt.Errorf("runahead: unknown kind %q", s)
	}
	return nil
}

// Config parameterises the runahead controller.
type Config struct {
	Kind               Kind      `json:"kind"`
	TriggerLevel       mem.Level `json:"trigger_level"`        // miss depth that triggers entry (default: main memory)
	RunaheadCacheBytes int       `json:"runahead_cache_bytes"` // capacity of the runahead store cache
	ExitPenalty        int       `json:"exit_penalty"`         // cycles between exit and fetch restart
	VectorLanes        int       `json:"vector_lanes"`         // lanes for KindVector prefetching
	SkipINVBranch      bool      `json:"skip_inv_branch"`      // §6 alternative mitigation: stop speculation at INV branches
}

// DefaultConfig returns the original-runahead configuration used in the
// paper's evaluation: entry when a load that missed to main memory blocks
// the head of the reorder buffer ("the instruction window fills up and
// halts the pipeline", §2.1 — the window cannot retire past the load).
func DefaultConfig() Config {
	return Config{
		Kind:               KindOriginal,
		TriggerLevel:       mem.LevelMem,
		RunaheadCacheBytes: 512,
		ExitPenalty:        4,
		VectorLanes:        8,
	}
}

// RDT is the register dependence table that Precise Runahead uses to learn,
// during normal operation, which static instructions feed load addresses
// ("stall slices").  Learning is iterative: every committed load marks the
// producers of its address registers, and every committed instruction whose
// PC is already in a slice marks the producers of its own sources.  Over a
// few loop iterations this transitively closes over the address back-slice.
type RDT struct {
	slice map[uint64]bool
	// The PC of the most recent committed writer of each architectural
	// register, one array per register file like the CPU's RAT.
	intw [isa.NumIntRegs]lastWriter
	fpw  [isa.NumFPRegs]lastWriter
	vecw [isa.NumVecRegs]lastWriter
}

// lastWriter is one register's slot in the RDT; ok marks it as written.
type lastWriter struct {
	pc uint64
	ok bool
}

// NewRDT returns an empty table.
func NewRDT() *RDT {
	return &RDT{slice: make(map[uint64]bool)}
}

// Reset empties the table (machine reuse).  The slice map's storage is
// retained, so re-learning a program of similar shape allocates nothing.
func (r *RDT) Reset() {
	clear(r.slice)
	*r = RDT{slice: r.slice}
}

// writer returns reg's last-writer slot, or nil for a register outside the
// architectural files.
func (r *RDT) writer(reg isa.Reg) *lastWriter {
	i := reg.Idx()
	switch reg.Class() {
	case isa.ClassInt:
		if i < len(r.intw) {
			return &r.intw[i]
		}
	case isa.ClassFP:
		if i < len(r.fpw) {
			return &r.fpw[i]
		}
	case isa.ClassVec:
		if i < len(r.vecw) {
			return &r.vecw[i]
		}
	}
	return nil
}

// InSlice reports whether the instruction at pc belongs to a stall slice.
func (r *RDT) InSlice(pc uint64) bool { return r.slice[pc] }

// Len reports the number of slice PCs learned.
func (r *RDT) Len() int { return len(r.slice) }

// ObserveCommit learns from one committed instruction.  Call in program
// order during normal mode.
func (r *RDT) ObserveCommit(pc uint64, in isa.Inst) {
	var srcs [4]isa.Reg
	if in.Op.IsLoad() {
		// The producers of a load's address registers are slice members.
		r.markProducer(in.Rs1)
		if in.UsesIndex() {
			r.markProducer(in.Rs2)
		}
	} else if r.slice[pc] {
		// Slice membership propagates to the producers of slice inputs.
		for _, s := range in.SrcRegs(srcs[:0]) {
			r.markProducer(s)
		}
	}
	if d := in.Dest(); !d.IsZero() {
		if w := r.writer(d); w != nil {
			*w = lastWriter{pc: pc, ok: true}
		}
	}
}

func (r *RDT) markProducer(reg isa.Reg) {
	if reg.IsZero() {
		return
	}
	if w := r.writer(reg); w != nil && w.ok {
		r.slice[w.pc] = true
	}
}

// StrideDetector learns per-PC load strides for Vector Runahead.  Entries
// are stored by value so that Reset (which clears the map but keeps its
// buckets) makes re-learning allocation-free.
type StrideDetector struct {
	m map[uint64]strideEntry
}

type strideEntry struct {
	lastAddr uint64
	stride   int64
	conf     int
}

// NewStrideDetector returns an empty detector.
func NewStrideDetector() *StrideDetector {
	return &StrideDetector{m: make(map[uint64]strideEntry)}
}

// Reset empties the detector (machine reuse), retaining map storage.
func (d *StrideDetector) Reset() {
	clear(d.m)
}

// Len reports the number of load PCs with a stride entry.
func (d *StrideDetector) Len() int { return len(d.m) }

// confThreshold is the number of consecutive identical strides required
// before Predict reports confidence.
const confThreshold = 2

// Observe records a committed load's effective address.
func (d *StrideDetector) Observe(pc, addr uint64) {
	e, ok := d.m[pc]
	if !ok {
		d.m[pc] = strideEntry{lastAddr: addr}
		return
	}
	s := int64(addr - e.lastAddr)
	if s == e.stride && s != 0 {
		if e.conf < confThreshold {
			e.conf++
		}
	} else {
		e.stride = s
		e.conf = 0
	}
	e.lastAddr = addr
	d.m[pc] = e
}

// Predict returns the learned stride for pc if confident.
func (d *StrideDetector) Predict(pc uint64) (stride int64, ok bool) {
	e, present := d.m[pc]
	if !present || e.conf < confThreshold || e.stride == 0 {
		return 0, false
	}
	return e.stride, true
}
