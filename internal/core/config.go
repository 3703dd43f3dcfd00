package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"specrun/internal/isa"
	"specrun/internal/mem"
)

// configField is one numeric field of a machine configuration: its JSON
// path (the name error messages print), where it lives, its range, and
// whether the model masks with it, so that it must be a power of two.
type configField struct {
	path     string
	v        *int
	min, max int
	pow2     bool
}

// configFields is the rule set for a machine configuration, one row per
// numeric field of c; Normalize and Validate walk it.  Only
// branch.btb_tag_bits may be 0 (full tags, its default).  With the limits
// below, the bounds keep the largest machine Validate accepts at ~85 MB
// (TestLargestMachineWithinBudget).
func configFields(c *Config) [48]configField {
	return [...]configField{
		{"fetch_width", &c.FetchWidth, 1, 256, false},
		{"decode_width", &c.DecodeWidth, 1, 256, false},
		{"dispatch_width", &c.DispatchWidth, 1, 256, false},
		{"issue_width", &c.IssueWidth, 1, 256, false},
		{"commit_width", &c.CommitWidth, 1, 256, false},
		{"front_end_depth", &c.FrontEndDepth, 1, 1 << 10, false},
		{"rob_size", &c.ROBSize, 1, 1 << 14, false}, // ~1.2 KB of uops per entry
		{"iq_size", &c.IQSize, 1, 1 << 14, false},
		{"lq_size", &c.LQSize, 1, 1 << 14, false},
		{"sq_size", &c.SQSize, 1, 1 << 14, false},
		// A register file holds the architectural registers and needs one
		// more to rename a writer.
		{"int_prf", &c.IntPRF, isa.NumIntRegs + 1, 1 << 15, false},
		{"fp_prf", &c.FPPRF, isa.NumFPRegs + 1, 1 << 15, false},
		{"vec_prf", &c.VecPRF, isa.NumVecRegs + 1, 1 << 15, false},
		{"int_alu", &c.IntALU, 1, 256, false},
		{"int_mul", &c.IntMul, 1, 256, false},
		{"int_div", &c.IntDiv, 1, 256, false},
		{"fp_add", &c.FPAdd, 1, 256, false},
		{"fp_mul", &c.FPMul, 1, 256, false},
		{"fp_div", &c.FPDiv, 1, 256, false},
		{"mem_ports", &c.MemPorts, 1, 256, false},
		{"front_q", &c.FrontQ, 1, 1 << 12, false}, // ~1.2 KB of uops per entry
		{"mem.line_size", &c.Mem.LineSize, 1, 1 << 12, true},
		{"mem.l1i.size", &c.Mem.L1I.Size, 1, 1 << 30, false},
		{"mem.l1i.assoc", &c.Mem.L1I.Assoc, 1, 1 << 14, false}, // ways are int16 indices
		{"mem.l1i.latency", &c.Mem.L1I.Latency, 1, 1 << 16, false},
		{"mem.l1d.size", &c.Mem.L1D.Size, 1, 1 << 30, false},
		{"mem.l1d.assoc", &c.Mem.L1D.Assoc, 1, 1 << 14, false},
		{"mem.l1d.latency", &c.Mem.L1D.Latency, 1, 1 << 16, false},
		{"mem.l2.size", &c.Mem.L2.Size, 1, 1 << 30, false},
		{"mem.l2.assoc", &c.Mem.L2.Assoc, 1, 1 << 14, false},
		{"mem.l2.latency", &c.Mem.L2.Latency, 1, 1 << 16, false},
		{"mem.l3.size", &c.Mem.L3.Size, 1, 1 << 30, false},
		{"mem.l3.assoc", &c.Mem.L3.Assoc, 1, 1 << 14, false},
		{"mem.l3.latency", &c.Mem.L3.Latency, 1, 1 << 16, false},
		{"mem.mem_latency", &c.Mem.MemLatency, 1, 1 << 16, false},
		{"mem.mem_bus_cycles", &c.Mem.MemBusCycles, 1, 1 << 16, false},
		{"mem.mem_max_outstanding", &c.Mem.MemMaxOutstanding, 1, 1 << 12, false},
		{"branch.history_bits", &c.Branch.HistoryBits, 1, 64, false},
		{"branch.pht_size", &c.Branch.PHTSize, 1, 1 << 20, true},
		{"branch.btb_sets", &c.Branch.BTBSets, 1, 1 << 16, true},
		{"branch.btb_assoc", &c.Branch.BTBAssoc, 1, 1 << 16, false},
		{"branch.btb_tag_bits", &c.Branch.BTBTagBits, 0, 64, false},
		{"branch.rsb_size", &c.Branch.RSBSize, 1, 1 << 12, false},
		{"runahead.runahead_cache_bytes", &c.Runahead.RunaheadCacheBytes, 1, 1 << 16, false},
		{"runahead.exit_penalty", &c.Runahead.ExitPenalty, 1, 1 << 16, false},
		{"runahead.vector_lanes", &c.Runahead.VectorLanes, 1, 256, false},
		{"secure.sl_entries", &c.Secure.SLEntries, 1, 1 << 16, false},
		{"secure.sl_latency", &c.Secure.SLLatency, 1, 1 << 16, false},
	}
}

// Limits on sizes derived across fields, which per-field bounds alone
// leave open (a 1 GB cache of 1-byte lines, say).
const (
	maxCacheLines = 1 << 18 // 32 B of tag state per line, 16 MB of 64-B lines
	maxBTBEntries = 1 << 16
)

// configCaches returns c's four cache levels, named by cachePaths.
func configCaches(c *Config) [4]*mem.CacheConfig {
	return [...]*mem.CacheConfig{&c.Mem.L1I, &c.Mem.L1D, &c.Mem.L2, &c.Mem.L3}
}

var cachePaths = [...]string{"mem.l1i", "mem.l1d", "mem.l2", "mem.l3"}

// Normalize returns cfg with every zero numeric field, empty cache name and
// trigger level of none replaced by its Table 1 default, so that two
// configurations of the same machine hash alike under [HashKey].
// Runahead.Kind (none = baseline) and the switches keep their zeros.
func Normalize(cfg Config) Config {
	def := DefaultConfig()
	defs := configFields(&def)
	for i, f := range configFields(&cfg) {
		if *f.v == 0 {
			*f.v = *defs[i].v
		}
	}
	for i, c := range configCaches(&cfg) {
		if c.Name == "" {
			c.Name = configCaches(&def)[i].Name
		}
	}
	if cfg.Runahead.TriggerLevel == mem.LevelNone {
		cfg.Runahead.TriggerLevel = def.Runahead.TriggerLevel
	}
	return cfg
}

// Validate accepts exactly the configurations the simulator can build
// within its memory budget: after [Normalize], every field lies in its
// range and is a power of two where the model masks with it, each cache
// has a power-of-two set count, and caches and BTB stay within their
// limits.  A hostile document thus becomes an error, not a panic or an
// outsized allocation.
func Validate(cfg Config) error {
	for _, f := range configFields(&cfg) {
		// The messages quote a clone of the path: quoting f.path itself
		// would move cfg to the heap on every call.
		switch v := *f.v; {
		case v < f.min || v > f.max:
			return fmt.Errorf("core: config field %s = %d out of range (%d..%d)", strings.Clone(f.path), v, f.min, f.max)
		case f.pow2 && v&(v-1) != 0:
			return fmt.Errorf("core: config field %s = %d is not a power of two", strings.Clone(f.path), v)
		}
	}
	line := cfg.Mem.LineSize
	for i, c := range configCaches(&cfg) {
		sets := c.Sets(line)
		switch {
		case sets < 1 || sets&(sets-1) != 0:
			return fmt.Errorf("core: config %s: size %d / (assoc %d × line_size %d) = %d sets, not a power of two",
				cachePaths[i], c.Size, c.Assoc, line, sets)
		case sets*c.Assoc > maxCacheLines:
			return fmt.Errorf("core: config %s: %d sets × assoc %d = %d lines, above %d",
				cachePaths[i], sets, c.Assoc, sets*c.Assoc, maxCacheLines)
		}
	}
	if b := cfg.Branch; b.BTBSets*b.BTBAssoc > maxBTBEntries {
		return fmt.Errorf("core: config branch: btb_sets %d × btb_assoc %d = %d entries, above %d",
			b.BTBSets, b.BTBAssoc, b.BTBSets*b.BTBAssoc, maxBTBEntries)
	}
	return nil
}

// Overlay decodes doc, a partial JSON configuration, onto base and returns
// the result normalized and validated: the one way a configuration comes
// in from outside (HTTP routes, jobs, `specrun trace --config`).  Unknown
// fields are errors, so a typo cannot silently run the defaults.
func Overlay(base Config, doc []byte) (Config, error) {
	if len(doc) > 0 {
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&base); err != nil {
			return base, fmt.Errorf("config: %w", err)
		}
	}
	cfg := Normalize(base)
	return cfg, Validate(cfg)
}
