package main

import (
	"sync"
	"time"

	"specrun/internal/asm"
	"specrun/internal/core"
	"specrun/internal/cpu"
)

// layerUnits declares every per-layer metric a traced run prints.  Every
// workload prints all of them; a layer the workload never enters reads 0.
// Times and counts are per operation unless the name says otherwise
// (NOTES.md lists each metric's base).
var layerUnits = map[string]string{
	"workload.build_ms":       "ms",
	"attack.build_ms":         "ms",
	"core.new_machine_ms":     "ms",
	"core.machines_built":     "count",
	"core.alloc_mb":           "MB",
	"core.reset_us":           "us",
	"core.pool_hit_ratio":     "ratio",
	"cpu.run_ms":              "ms",
	"cpu.ns_per_cycle":        "ns",
	"cpu.ns_per_uop":          "ns",
	"cpu.cycles":              "count",
	"cpu.committed":           "count",
	"cpu.fetched":             "count",
	"cpu.squashed":            "count",
	"cpu.rob_full_share":      "ratio",
	"runahead.cycle_share":    "ratio",
	"runahead.episodes":       "count",
	"mem.l1d_miss_rate":       "ratio",
	"mem.l2_miss_rate":        "ratio",
	"mem.llc_miss_rate":       "ratio",
	"mem.requests":            "count",
	"branch.mispredict_rate":  "ratio",
	"secure.sl_waits":         "count",
	"sweep.busy_ratio":        "ratio",
	"sweep.serial_share":      "ratio",
	"proggen.generate_us":     "us",
	"iss.run_us":              "us",
	"difftest.check_ms":       "ms",
	"leak.check_ms":           "ms",
	"leak.corpus_ms":          "ms",
	"leak.shrink_ms":          "ms",
	"difftest.divergences":    "count",
	"leak.findings":           "count",
	"leak.run_errors":         "count",
	"server.decode_us":        "us",
	"asm.parse_us":            "us",
	"prog.codec_us":           "us",
	"core.hash_us":            "us",
	"server.encode_us":        "us",
	"rescache.hit_ratio":      "ratio",
	"rescache.disk_hit_ratio": "ratio",
	"rescache.disk_writes":    "count",
	"rescache.read_us":        "us",
	"rescache.write_us":       "us",
	"server.simulate_ms":      "ms",
	"sweep.gate_wait_ms":      "ms",
	"server.job_ms":           "ms",
	"server.journal_records":  "count",
	"server.handler_ms":       "ms",
	"server.http_ms":          "ms",
	"trace.op_wall_ms":        "ms",
}

// simTotals accumulates the simulated statistics of the machines a traced
// run drove, for the cpu/runahead/mem/branch/secure layer metrics.  The
// counts are exact: they come from the machines' own Stats and caches.
type simTotals struct {
	mu                                   sync.Mutex
	cycles, committed, fetched, squashed uint64
	robFull, raCycles, episodes, slWaits uint64
	condBranches, condMispredicts        uint64
	l1dAccess, l1dMiss, l2Access, l2Miss uint64
	l3Access, l3Miss, memRequests        uint64
	runNs                                int64
}

// add folds one finished run of c, which took run of host time.
func (t *simTotals) add(c *cpu.CPU, run time.Duration) {
	st := c.Stats()
	_, l1d, l2, l3 := c.Hier().Caches()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cycles += st.Cycles
	t.committed += st.Committed
	t.fetched += st.Fetched
	t.squashed += st.Squashed
	t.robFull += st.ROBFullCycles
	t.raCycles += st.RunaheadCycles
	t.episodes += st.RunaheadEpisodes
	t.slWaits += st.SLWaits
	t.condBranches += st.CondBranches
	t.condMispredicts += st.CondMispredicts
	t.l1dAccess += l1d.Stats.Hits + l1d.Stats.Misses
	t.l1dMiss += l1d.Stats.Misses
	t.l2Access += l2.Stats.Hits + l2.Stats.Misses
	t.l2Miss += l2.Stats.Misses
	t.l3Access += l3.Stats.Hits + l3.Stats.Misses
	t.l3Miss += l3.Stats.Misses
	t.memRequests += c.Hier().Stats.MemRequests
	t.runNs += run.Nanoseconds()
}

// into writes the simulation-layer metrics, per operation over ops.
func (t *simTotals) into(m map[string]float64, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	per := func(v float64) float64 { return ratio(v, float64(ops)) }
	m["cpu.run_ms"] = per(float64(t.runNs) / 1e6)
	m["cpu.ns_per_cycle"] = ratio(float64(t.runNs), float64(t.cycles))
	m["cpu.ns_per_uop"] = ratio(float64(t.runNs), float64(t.fetched))
	m["cpu.cycles"] = per(float64(t.cycles))
	m["cpu.committed"] = per(float64(t.committed))
	m["cpu.fetched"] = per(float64(t.fetched))
	m["cpu.squashed"] = per(float64(t.squashed))
	m["cpu.rob_full_share"] = ratio(float64(t.robFull), float64(t.cycles))
	m["runahead.cycle_share"] = ratio(float64(t.raCycles), float64(t.cycles))
	m["runahead.episodes"] = per(float64(t.episodes))
	m["mem.l1d_miss_rate"] = ratio(float64(t.l1dMiss), float64(t.l1dAccess))
	m["mem.l2_miss_rate"] = ratio(float64(t.l2Miss), float64(t.l2Access))
	m["mem.llc_miss_rate"] = ratio(float64(t.l3Miss), float64(t.l3Access))
	m["mem.requests"] = per(float64(t.memRequests))
	m["branch.mispredict_rate"] = ratio(float64(t.condMispredicts), float64(t.condBranches))
	m["secure.sl_waits"] = per(float64(t.slWaits))
}

// sweepShares computes sweep.busy_ratio and sweep.serial_share from a
// traced run's spans: busy is the summed duration of "sweep.job" spans over
// the wall time of the "sweep.run" spans times the worker count; serial is
// the share of the operations' wall time ("op" spans) during which fewer
// than two jobs ran at once.
func sweepShares(spans []span, m map[string]float64) {
	var runWall, jobTime, opWall, parallel int64
	for _, s := range spans {
		switch s.Name {
		case "sweep.run":
			runWall += s.End - s.Start
		case "sweep.job":
			jobTime += s.End - s.Start
		}
	}
	jobs := intervals(spans, "sweep.job")
	for _, s := range spans {
		if s.Name == "op" {
			opWall += s.End - s.Start
			parallel += concurrent(jobs, workers, s.Start, s.End)
		}
	}
	m["sweep.busy_ratio"] = ratio(float64(jobTime), float64(runWall*workers))
	m["sweep.serial_share"] = ratio(float64(opWall-parallel), float64(opWall))
}

// layerTimes writes the mean per-operation self time of each named span,
// converted to the unit of the metric it feeds (metric name → span name).
func layerTimes(spans []span, ops int, m map[string]float64, names map[string]string) {
	byName := perOpSelf(spans)
	for metricName, spanName := range names {
		ns := meanPerOp(byName[spanName], ops)
		switch layerUnits[metricName] {
		case "ms":
			m[metricName] = ns / 1e6
		case "us":
			m[metricName] = ns / 1e3
		default:
			m[metricName] = ns
		}
	}
}

// machinePool recycles machines per configuration the way core's pooled
// runner does: at most one idle machine per worker, Reset on reuse.
type machinePool struct {
	mu           sync.Mutex
	free         map[core.Config][]*core.Machine
	hits, misses int
}

func newMachinePool() *machinePool {
	return &machinePool{free: make(map[core.Config][]*core.Machine)}
}

func (p *machinePool) get(cfg core.Config) *core.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	ms := p.free[cfg]
	if len(ms) == 0 {
		p.misses++
		return nil
	}
	p.hits++
	m := ms[len(ms)-1]
	p.free[cfg] = ms[:len(ms)-1]
	return m
}

func (p *machinePool) put(cfg core.Config, m *core.Machine) {
	p.mu.Lock()
	p.free[cfg] = append(p.free[cfg], m)
	p.mu.Unlock()
}

func (p *machinePool) hitRatio() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ratio(float64(p.hits), float64(p.hits+p.misses))
}

// runMachine loads prog on a machine for cfg — recycled from pool when one
// is given and idle, built fresh otherwise — runs it under spans, folds its
// statistics into tot and returns them.
func runMachine(tr *tracer, op, parent int64, cfg core.Config, prog *asm.Program, budget uint64, pool *machinePool, tot *simTotals) (cpu.Stats, error) {
	var m *core.Machine
	if pool != nil {
		m = pool.get(cfg)
	}
	if m != nil {
		tr.do("core.reset", parent, op, func(int64) { m.Reset(prog) })
	} else {
		tr.do("core.new_machine", parent, op, func(int64) { m = core.NewMachine(cfg, prog) })
	}
	var err error
	d := tr.do("cpu.run", parent, op, func(int64) { err = m.Run(budget) })
	tot.add(m.CPU, d)
	st := *m.Stats()
	st.EpisodeReaches = append([]uint64(nil), st.EpisodeReaches...)
	if pool != nil {
		pool.put(cfg, m)
	}
	return st, err
}
