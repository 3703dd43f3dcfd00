// Cross-run state-leak hunting: the differential oracle that proves machine
// reuse is airtight.  Every sweep, fuzz and server worker runs thousands of
// unrelated programs on one reused machine (CPU.Reset between jobs); a
// single bit of state surviving a Reset — a stale waiter entry, a store
// still linked in the SQ line index, a cache line visible across an epoch
// bump, predictor state, a leaked watermark — would silently corrupt result
// streams in ways the per-seed ISS oracle can miss (both runs of a seed
// would be wrong the same way only if the leak were deterministic per seed,
// which interleaving defeats).
//
// The interleave check runs A, B, A′ on ONE machine per configuration,
// where A′ re-runs A's program after the unrelated program B has smeared
// the machine's internal state.  A and A′ must be identical in commit
// stream, full statistics (cycle counts included — timing state like cache
// and LRU contents is architectural here) and final register/memory state.
package difftest

import (
	"fmt"
	"reflect"

	"specrun/internal/cpu"
	"specrun/internal/isa"
	"specrun/internal/proggen"
)

// KindStateLeak labels an A-vs-A′ divergence found by the interleave mode.
const KindStateLeak = "state_leak"

// interleaveStride derives B's seed from A's: far enough that campaign seed
// ranges never make A and B identical programs.
const interleaveStride = 1_000_003

// machineSnapshot captures everything CheckInterleave compares between the
// two A runs.
type machineSnapshot struct {
	recs  []record
	stats cpu.Stats
	ints  [isa.NumIntRegs]uint64
	fps   [isa.NumFPRegs]uint64
	vecs  [isa.NumVecRegs][2]uint64
	mem   []uint64
}

func snapshot(c *cpu.CPU, recs []record, prog progRegions) machineSnapshot {
	s := machineSnapshot{recs: append([]record(nil), recs...), stats: c.StatsCopy()}
	for i := range s.ints {
		s.ints[i] = c.IntReg(i)
	}
	for i := range s.fps {
		s.fps[i] = c.FPReg(i)
	}
	for i := range s.vecs {
		s.vecs[i] = c.VecReg(i)
	}
	for _, r := range prog.regions {
		for off := 0; off < r.size; off += 8 {
			s.mem = append(s.mem, c.Mem().ReadU64(r.base+uint64(off)))
		}
	}
	return s
}

type progRegion struct {
	base uint64
	size int
}

type progRegions struct{ regions []progRegion }

// diffSnapshots describes the first A-vs-A′ difference ("" if identical).
func diffSnapshots(a, a2 machineSnapshot) string {
	if d := diffStreams(a.recs, a2.recs); d != "" {
		return "commit stream: " + d
	}
	if !reflect.DeepEqual(a.stats, a2.stats) {
		return fmt.Sprintf("stats diverge: first %+v, rerun %+v", a.stats, a2.stats)
	}
	if a.ints != a2.ints || a.fps != a2.fps || a.vecs != a2.vecs {
		return "final register files diverge"
	}
	if !reflect.DeepEqual(a.mem, a2.mem) {
		return "final buffer/stack memory diverges"
	}
	return ""
}

// CheckInterleave runs program A, an unrelated program B, then A again — all
// on one reused machine per configuration — and reports any difference
// between the two A runs as a state leak.  (A's correctness against the ISS
// reference is CheckSeed's job; this oracle isolates reuse.)
func CheckInterleave(seed int64, opt proggen.Options, cfgs []NamedConfig) SeedResult {
	rc := runnerCaches.Get()
	defer runnerCaches.Put(rc)
	opt = opt.WithDefaults() // resolve exactly as Generate will
	progA := proggen.Generate(seed, opt)
	progB := proggen.Generate(seed+interleaveStride, opt)

	var pr progRegions
	for _, region := range []struct {
		sym  string
		size int
	}{{"buf", opt.BufBytes}, {"stack", opt.StackBytes}} {
		if base, ok := progA.Sym(region.sym); ok {
			pr.regions = append(pr.regions, progRegion{base: base, size: region.size})
		}
	}

	res := SeedResult{Seed: seed}
	for _, nc := range cfgs {
		diverge := func(kind, detail string) {
			res.Divergences = append(res.Divergences, Divergence{
				Seed: seed, Config: nc.Name, Kind: kind, Detail: detail,
			})
		}
		recs, c, err := rc.pipeStream(nc, progA)
		if err != nil {
			diverge(KindRunError, err.Error())
			continue
		}
		first := snapshot(c, recs, pr)
		if _, _, err := rc.pipeStream(nc, progB); err != nil {
			diverge(KindRunError, fmt.Sprintf("interfering program (seed %d): %v", seed+interleaveStride, err))
			continue
		}
		recs, c, err = rc.pipeStream(nc, progA)
		if err != nil {
			diverge(KindRunError, fmt.Sprintf("rerun after interleave: %v", err))
			continue
		}
		rerun := snapshot(c, recs, pr)
		st := c.Stats()
		res.PerConfig = append(res.PerConfig, ConfigRunStats{
			Name: nc.Name, Episodes: st.RunaheadEpisodes, Committed: st.Committed, Cycles: st.Cycles,
		})
		if d := diffSnapshots(first, rerun); d != "" {
			diverge(KindStateLeak, d)
		}
	}
	return res
}
