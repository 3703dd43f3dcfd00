package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"specrun/internal/core"
	"specrun/internal/proggen"
	"specrun/internal/server"
)

// SimBench carries raw simulator-throughput metrics: how fast the simulator
// itself runs, independent of what it simulates.  Throughput is
// host-dependent; the allocation metrics are deterministic for a given
// binary, which is what makes them gateable across machines.
type SimBench struct {
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"` // simulated cycles per host second
	CyclesPerRun    uint64  `json:"cycles_per_run"`     // simulated cycles per benchmark program run
	AllocsPerOp     uint64  `json:"allocs_per_op"`      // heap allocations per run (steady-state, machine reuse)
	BytesPerOp      uint64  `json:"bytes_per_op"`       // heap bytes per run
	Runs            int     `json:"runs"`               // benchmark iterations measured
	Host            string  `json:"host"`               // host fingerprint; throughput gates only apply on a matching host
}

// BenchReport is the stable JSON document `specrun bench --json` emits: the
// simulator-throughput and allocation metrics that --gate compares with a
// committed baseline.  CI uploads it as a BENCH_*.json artifact on every run
// — the repo's pinned performance trajectory.
type BenchReport struct {
	Version string    `json:"version"`
	Sim     *SimBench `json:"sim"`
}

// hostFingerprint identifies the machine well enough to decide whether two
// throughput numbers are comparable.
func hostFingerprint() string {
	model := runtime.GOOS + "/" + runtime.GOARCH
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				model += " " + strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return model
}

// measureSim benchmarks the steady-state simulation path (one machine,
// Reset per program — what every sweep and fuzz worker runs).
func measureSim() (*SimBench, error) {
	const budget = 50_000_000
	prog := proggen.Generate(42, proggen.DefaultOptions())
	m := core.NewMachine(core.DefaultConfig(), prog)
	if err := m.Run(budget); err != nil { // warmup: size pools and pages
		return nil, err
	}
	var cycles uint64
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		cycles = 0
		for i := 0; i < b.N; i++ {
			m.Reset(prog)
			if err := m.Run(budget); err != nil {
				runErr = err
				b.FailNow()
			}
			cycles += m.Stats().Cycles
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	if r.N == 0 {
		return nil, fmt.Errorf("bench: simulator benchmark did not run")
	}
	return &SimBench{
		SimCyclesPerSec: float64(cycles) / r.T.Seconds(),
		CyclesPerRun:    cycles / uint64(r.N),
		AllocsPerOp:     uint64(r.AllocsPerOp()),
		BytesPerOp:      uint64(r.AllocedBytesPerOp()),
		Runs:            r.N,
		Host:            hostFingerprint(),
	}, nil
}

// gate compares the measured simulator metrics against a committed baseline
// report and fails on regression: the allocation metrics gate on every host
// (they are properties of the binary), throughput only when the baseline was
// recorded on the same hardware.
func gate(sim *SimBench, baselinePath string, tol float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench: gate baseline: %w", err)
	}
	var base BenchReport
	if err := server.Decode(data, &base); err != nil {
		return fmt.Errorf("bench: gate baseline %s: %w", baselinePath, err)
	}
	if base.Sim == nil {
		return fmt.Errorf("bench: gate baseline %s has no sim section", baselinePath)
	}
	b := base.Sim
	var fails []string
	// Small absolute slack on top of the relative tolerance so a baseline of
	// zero allocations doesn't make any single stray allocation fatal noise.
	if limit := float64(b.AllocsPerOp)*(1+tol) + 2; float64(sim.AllocsPerOp) > limit {
		fails = append(fails, fmt.Sprintf("allocs/op %d > baseline %d (+%.0f%%)", sim.AllocsPerOp, b.AllocsPerOp, tol*100))
	}
	if limit := float64(b.BytesPerOp)*(1+tol) + 256; float64(sim.BytesPerOp) > limit {
		fails = append(fails, fmt.Sprintf("bytes/op %d > baseline %d (+%.0f%%)", sim.BytesPerOp, b.BytesPerOp, tol*100))
	}
	if sim.Host == b.Host && b.SimCyclesPerSec > 0 {
		if sim.SimCyclesPerSec < b.SimCyclesPerSec*(1-tol) {
			fails = append(fails, fmt.Sprintf("throughput %.0f sim_cycles/s < baseline %.0f (-%.0f%%)",
				sim.SimCyclesPerSec, b.SimCyclesPerSec, tol*100))
		}
	} else {
		fmt.Fprintf(os.Stderr, "bench: gate: host differs from baseline (%q vs %q); throughput compared informationally only: %.0f vs %.0f sim_cycles/s\n",
			sim.Host, b.Host, sim.SimCyclesPerSec, b.SimCyclesPerSec)
	}
	if len(fails) > 0 {
		return fmt.Errorf("bench: performance gate failed vs %s:\n  %s", baselinePath, strings.Join(fails, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "bench: gate ok vs %s (allocs/op %d ≤ %d, throughput %.2fM vs %.2fM sim_cycles/s)\n",
		baselinePath, sim.AllocsPerOp, b.AllocsPerOp, sim.SimCyclesPerSec/1e6, b.SimCyclesPerSec/1e6)
	return nil
}

// runBench implements `specrun bench`: measure simulator throughput and
// allocation on the steady-state path and emit the metrics as one document.
//
//	specrun bench --json --out bench.json
//	specrun bench --json --gate bench/baseline.json
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit the canonical JSON document (default: human summary)")
	out := fs.String("out", "", "output file (default stdout)")
	gatePath := fs.String("gate", "", "baseline BENCH json; exit nonzero on performance regression against it")
	tol := fs.Float64("tolerance", 0.10, "relative regression tolerated by --gate")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulator benchmark to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the benchmark) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Profiling covers exactly the benchmark work below; the files are
	// written once the timed section ends, so profile collection never
	// perturbs the emitted metrics document.  The memprofile defer is
	// registered first so that (LIFO) the CPU profile stops before the
	// heap-profile GC and serialization run — they must not appear as a
	// tail in the CPU samples.
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the final live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bench: memprofile: %v\n", err)
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("bench: cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("bench: cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	sim, err := measureSim()
	if err != nil {
		return fmt.Errorf("bench: sim: %w", err)
	}
	rep := BenchReport{Version: server.Version(), Sim: sim}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if *jsonOut {
		b, err := server.Encode(rep)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "Sim: %.2fM sim_cycles/s, %d allocs/op, %d B/op (%d cycles/run × %d runs)\n",
			sim.SimCyclesPerSec/1e6, sim.AllocsPerOp, sim.BytesPerOp, sim.CyclesPerRun, sim.Runs)
	}
	if *gatePath != "" {
		return gate(sim, *gatePath, *tol)
	}
	return nil
}
