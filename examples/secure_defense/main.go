// secure_defense evaluates §6 of the paper: the Fig. 11 attack against the
// vulnerable runahead machine, the SL-cache scheme (Algorithm 1) and the
// skip-INV-branch restriction — then measures what the defenses cost on the
// Fig. 7 workloads.
package main

import (
	"context"
	"fmt"
	"log"

	"specrun/internal/core"
	"specrun/internal/workload"
)

func main() {
	d, err := core.RunDefense(context.Background(), core.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.FormatDefense(d))

	fmt.Println("\nperformance cost on the Fig. 7 kernels (cycles, lower is better):")
	fmt.Printf("  %-8s %12s %12s %12s %10s\n", "bench", "runahead", "SL cache", "skip-INV", "SL cost")
	cfgs := []core.Config{core.DefaultConfig(), core.SecureConfig(), skipINVConfig()}
	for _, k := range workload.Kernels() {
		var cycles [3]uint64
		for i, cfg := range cfgs {
			m, err := core.RunProgram(cfg, k.Build())
			if err != nil {
				log.Fatal(err)
			}
			cycles[i] = m.Stats().Cycles
		}
		fmt.Printf("  %-8s %12d %12d %12d %9.1f%%\n", k.Name,
			cycles[0], cycles[1], cycles[2],
			100*(float64(cycles[1])/float64(cycles[0])-1))
	}
	fmt.Println("\nthe SL cache keeps runahead's prefetches private until their branch")
	fmt.Println("resolves, trading a little of the Fig. 7 speedup for SPECRUN immunity.")
}

func skipINVConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Runahead.SkipINVBranch = true
	return cfg
}
