// Benchmark harness: one benchmark per table and figure of the SPECRUN
// paper's evaluation.  Custom metrics carry the reproduced quantities:
//
//	go test -bench=. -benchmem
//
// BenchmarkTable1   — machine construction with the Table 1 configuration
// BenchmarkFig7_*   — normalized IPC per benchmark (metric: IPC, speedup)
// BenchmarkFig9_*   — the PHT PoC (metrics: leaked byte, latency contrast)
// BenchmarkFig10_*  — transient window sizes N1/N2/N3 (metric: N)
// BenchmarkFig11_*  — beyond-the-ROB leak on both machines
// BenchmarkFig12_*  — taint-tracking throughput (the §6 hardware's work)
// BenchmarkDefense_* — §6 mitigations under attack
// BenchmarkVariant_* — §4.3/§4.4 applicability matrix
// BenchmarkAblation_* — design-choice sensitivity studies
package specrun

import (
	"context"
	"runtime"
	"testing"

	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/proggen"
	"specrun/internal/runahead"
	"specrun/internal/secure"
	"specrun/internal/workload"
)

func BenchmarkTable1Config(b *testing.B) {
	prog := workload.Bwaves()
	for i := 0; i < b.N; i++ {
		m := core.NewMachine(core.DefaultConfig(), prog)
		_ = m
	}
}

// ---- Fig. 7: normalized IPC ----

func benchIPC(b *testing.B, name string, kind runahead.Kind) {
	k, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Runahead.Kind = kind
	var ipc float64
	var cycles uint64
	for i := 0; i < b.N; i++ {
		st, err := core.RunProgramStats(cfg, k.Build())
		if err != nil {
			b.Fatal(err)
		}
		ipc = st.IPC()
		cycles = st.Cycles
	}
	b.ReportMetric(ipc, "IPC")
	b.ReportMetric(float64(cycles), "cycles")
}

func BenchmarkFig7_IPC_zeusm_base(b *testing.B) { benchIPC(b, "zeusm", runahead.KindNone) }
func BenchmarkFig7_IPC_zeusm_ra(b *testing.B)   { benchIPC(b, "zeusm", runahead.KindOriginal) }
func BenchmarkFig7_IPC_wrf_base(b *testing.B)   { benchIPC(b, "wrf", runahead.KindNone) }
func BenchmarkFig7_IPC_wrf_ra(b *testing.B)     { benchIPC(b, "wrf", runahead.KindOriginal) }
func BenchmarkFig7_IPC_bwave_base(b *testing.B) { benchIPC(b, "bwave", runahead.KindNone) }
func BenchmarkFig7_IPC_bwave_ra(b *testing.B)   { benchIPC(b, "bwave", runahead.KindOriginal) }
func BenchmarkFig7_IPC_lbm_base(b *testing.B)   { benchIPC(b, "lbm", runahead.KindNone) }
func BenchmarkFig7_IPC_lbm_ra(b *testing.B)     { benchIPC(b, "lbm", runahead.KindOriginal) }
func BenchmarkFig7_IPC_mcf_base(b *testing.B)   { benchIPC(b, "mcf", runahead.KindNone) }
func BenchmarkFig7_IPC_mcf_ra(b *testing.B)     { benchIPC(b, "mcf", runahead.KindOriginal) }
func BenchmarkFig7_IPC_Gems_base(b *testing.B)  { benchIPC(b, "Gems", runahead.KindNone) }
func BenchmarkFig7_IPC_Gems_ra(b *testing.B)    { benchIPC(b, "Gems", runahead.KindOriginal) }

// BenchmarkFig7_MeanSpeedup reports the headline number: the geometric-mean
// runahead speedup across the six kernels (paper: ~11%).
func BenchmarkFig7_MeanSpeedup(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := core.RunIPCComparison(context.Background(), core.DefaultConfig(), 0)
		if err != nil {
			b.Fatal(err)
		}
		mean = core.MeanSpeedup(rows)
	}
	b.ReportMetric((mean-1)*100, "speedup_%")
}

// ---- Sweep engine: Fig. 7 sharded across the worker pool ----

// benchIPCSweep runs the full 12-simulation Fig. 7 grid at a fixed worker
// count; comparing Workers1 with WorkersMax shows the wall-clock win of the
// parallel sweep engine on multi-core hosts (results are byte-identical).
func benchIPCSweep(b *testing.B, workers int) {
	var mean float64
	for i := 0; i < b.N; i++ {
		rows, err := core.RunIPCComparison(context.Background(), core.DefaultConfig(), workers)
		if err != nil {
			b.Fatal(err)
		}
		mean = core.MeanSpeedup(rows)
	}
	b.ReportMetric((mean-1)*100, "speedup_%")
}

func BenchmarkSweep_IPC_Workers1(b *testing.B)   { benchIPCSweep(b, 1) }
func BenchmarkSweep_IPC_WorkersMax(b *testing.B) { benchIPCSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSweep_VariantMatrix_WorkersMax shards the six §4.3/§4.4 PoC
// runs (four Spectre variants, two runahead variants).
func BenchmarkSweep_VariantMatrix_WorkersMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.RunVariantMatrix(context.Background(), core.DefaultConfig(), runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("want 6 rows, got %d", len(rows))
		}
	}
}

// ---- Fig. 9: the SPECRUN PoC ----

func benchAttack(b *testing.B, cfg core.Config, p attack.Params, wantLeak bool) {
	var r core.AttackResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = core.RunAttack(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r.Leaked != wantLeak {
		b.Fatalf("leak = %v, want %v (best index %d)", r.Leaked, wantLeak, r.BestIdx)
	}
	if r.Leaked {
		b.ReportMetric(float64(r.BestIdx), "leaked_byte")
		b.ReportMetric(float64(r.Median)/float64(r.BestLat), "latency_contrast")
	}
	b.ReportMetric(float64(r.Stats.RunaheadEpisodes), "episodes")
}

func BenchmarkFig9_SpecrunPHT(b *testing.B) {
	benchAttack(b, core.DefaultConfig(), attack.DefaultParams(), true)
}

// ---- Fig. 10: transient window ----

func benchWindow(b *testing.B, s attack.WindowScenario, paperN float64) {
	var r attack.WindowResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = attack.MeasureWindow(core.DefaultConfig(), s)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.N), "N")
	b.ReportMetric(paperN, "paper_N")
}

func BenchmarkFig10_Window1_Normal(b *testing.B) {
	benchWindow(b, attack.Window1NormalFlushOnce, 255)
}
func BenchmarkFig10_Window2_Runahead(b *testing.B) {
	benchWindow(b, attack.Window2RunaheadFlushOnce, 480)
}
func BenchmarkFig10_Window3_Repeat(b *testing.B) {
	benchWindow(b, attack.Window3RunaheadFlushRepeat, 840)
}

// ---- Fig. 11: beyond-the-ROB leak ----

func fig11Params() attack.Params {
	p := attack.DefaultParams()
	p.Secret = []byte{127}
	p.NopPad = 300
	return p
}

func BenchmarkFig11_BeyondROB_Runahead(b *testing.B) {
	benchAttack(b, core.DefaultConfig(), fig11Params(), true)
}

func BenchmarkFig11_BeyondROB_NoRunahead(b *testing.B) {
	benchAttack(b, core.BaselineConfig(), fig11Params(), false)
}

// ---- Fig. 12: taint tracking ----

// BenchmarkFig12_TaintTracking measures the §6 tracker on the paper's
// two-branch nesting pattern (the per-pseudo-retire hardware work).
func BenchmarkFig12_TaintTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := secure.NewTracker()
		tr.Observe(100)
		tr.RegisterBranch(100, 200, true, 1)
		tr.Observe(104)
		tr.RegisterBranch(104, 160, true, 2)
		for pc := uint64(108); pc < 200; pc += 4 {
			tr.Observe(pc)
			tr.Propagate(uint16(pc%32), 1, 2)
			if pc%16 == 0 {
				tag, is := tr.OnLoad(pc, tr.TaintOf(uint16(pc%32)))
				_ = tag
				_ = is
			}
		}
	}
}

// ---- §6: defenses ----

func BenchmarkDefense_SLCache_BlocksLeak(b *testing.B) {
	benchAttack(b, core.SecureConfig(), fig11Params(), false)
}

func BenchmarkDefense_SkipINV_BlocksLeak(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Runahead.SkipINVBranch = true
	benchAttack(b, cfg, fig11Params(), false)
}

// BenchmarkDefense_SLCache_Overhead reports the §6 performance cost on the
// most memory-bound Fig. 7 kernel.
func BenchmarkDefense_SLCache_Overhead(b *testing.B) {
	k, _ := workload.ByName("Gems")
	var vuln, sec uint64
	for i := 0; i < b.N; i++ {
		m1, err := core.RunProgram(core.DefaultConfig(), k.Build())
		if err != nil {
			b.Fatal(err)
		}
		m2, err := core.RunProgram(core.SecureConfig(), k.Build())
		if err != nil {
			b.Fatal(err)
		}
		vuln, sec = m1.Stats().Cycles, m2.Stats().Cycles
	}
	b.ReportMetric(100*(float64(sec)/float64(vuln)-1), "overhead_%")
}

// ---- §4.3 / §4.4: variants ----

func BenchmarkVariant_SpectreBTB(b *testing.B) {
	p := attack.DefaultParams()
	p.Variant = attack.VariantBTB
	p.NopPad = 300
	benchAttack(b, attack.ConfigFor(p.Variant, core.DefaultConfig()), p, true)
}

func BenchmarkVariant_SpectreRSB_Overwrite(b *testing.B) {
	p := attack.DefaultParams()
	p.Variant = attack.VariantRSBOverwrite
	benchAttack(b, core.DefaultConfig(), p, true)
}

func BenchmarkVariant_SpectreRSB_Flush(b *testing.B) {
	p := attack.DefaultParams()
	p.Variant = attack.VariantRSBFlush
	benchAttack(b, core.DefaultConfig(), p, true)
}

func BenchmarkVariant_PreciseRunahead(b *testing.B) {
	p := attack.DefaultParams()
	p.NopPad = 300
	benchAttack(b, core.VariantConfig(runahead.KindPrecise), p, true)
}

func BenchmarkVariant_VectorRunahead(b *testing.B) {
	p := attack.DefaultParams()
	p.NopPad = 300
	benchAttack(b, core.VariantConfig(runahead.KindVector), p, true)
}

// ---- Ablations (design choices DESIGN.md calls out) ----

// BenchmarkAblation_Table1RegisterFiles quantifies the literal Table 1
// register-file sizes (80/40/40): the window starves at ~48 in-flight
// integer writers and baseline MLP collapses.
func BenchmarkAblation_Table1RegisterFiles(b *testing.B) {
	k, _ := workload.ByName("bwave")
	var def, t1 uint64
	for i := 0; i < b.N; i++ {
		m1, err := core.RunProgram(core.BaselineConfig(), k.Build())
		if err != nil {
			b.Fatal(err)
		}
		m2, err := core.RunProgram(cpu.Table1RegisterFiles(core.BaselineConfig()), k.Build())
		if err != nil {
			b.Fatal(err)
		}
		def, t1 = m1.Stats().Cycles, m2.Stats().Cycles
	}
	b.ReportMetric(100*(float64(t1)/float64(def)-1), "slowdown_%")
}

// BenchmarkAblation_RSBSize shows the Fig. 4c surface shrinking with a
// deeper return stack (the stale entry gets buried).
func BenchmarkAblation_RSBSize(b *testing.B) {
	p := attack.DefaultParams()
	p.Variant = attack.VariantRSBFlush
	cfg := core.DefaultConfig()
	cfg.Branch.RSBSize = 64
	var r core.AttackResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = core.RunAttack(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
	}
	// The attack still works (the stale entry is still on top); the metric
	// records the covert-channel contrast for comparison with the default.
	b.ReportMetric(float64(r.Median)/float64(maxU(1, r.BestLat)), "latency_contrast")
}

// BenchmarkAblation_ExitPenalty sweeps the runahead exit penalty's effect on
// the most runahead-friendly kernel.
func BenchmarkAblation_ExitPenalty(b *testing.B) {
	k, _ := workload.ByName("Gems")
	cfg := core.DefaultConfig()
	cfg.Runahead.ExitPenalty = 32
	var slow, fast uint64
	for i := 0; i < b.N; i++ {
		m1, err := core.RunProgram(core.DefaultConfig(), k.Build())
		if err != nil {
			b.Fatal(err)
		}
		m2, err := core.RunProgram(cfg, k.Build())
		if err != nil {
			b.Fatal(err)
		}
		fast, slow = m1.Stats().Cycles, m2.Stats().Cycles
	}
	b.ReportMetric(100*(float64(slow)/float64(fast)-1), "slowdown_%")
}

// BenchmarkSimSpeed reports raw simulator throughput in simulated cycles per
// second of host time, on the steady-state path every sweep and fuzz worker
// now takes: one machine, Reset per program.  Run with -benchmem; the
// allocs/op figure is the zero-allocation tentpole's regression canary (the
// committed baseline in bench/ gates it in CI).
func BenchmarkSimSpeed(b *testing.B) {
	prog := proggen.Generate(42, proggen.DefaultOptions())
	m := core.NewMachine(core.DefaultConfig(), prog)
	if err := m.Run(50_000_000); err != nil { // warmup: size pools and pages
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset(prog)
		if err := m.Run(50_000_000); err != nil {
			b.Fatal(err)
		}
		cycles += m.Stats().Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkSimSpeed_Fresh is the same workload with a throwaway machine per
// run — the only mode the simulator had before machine reuse existed.  The
// gap between the two is the cost of rebuilding caches, predictors and
// queues per job.
func BenchmarkSimSpeed_Fresh(b *testing.B) {
	prog := proggen.Generate(42, proggen.DefaultOptions())
	var cycles uint64
	for i := 0; i < b.N; i++ {
		m, err := core.RunProgram(core.DefaultConfig(), prog)
		if err != nil {
			b.Fatal(err)
		}
		cycles += m.Stats().Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim_cycles/s")
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
