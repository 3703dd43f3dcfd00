package server

import (
	"context"
	"runtime/debug"
	"testing"

	"specrun/internal/attack"
	"specrun/internal/core"
)

// figureSetSims is the number of single-machine simulations in one figure
// set: 12 Fig. 7 runs (six kernels × two machines) and 22 PoC and window
// runs (Fig. 9: 1, Fig. 10: 3, Fig. 11: 2, §6: 3, variants: 6, and one per
// byte of the 7-byte leak secret).
const figureSetSims = 34

// Every simulation of the paper's figure set borrows its machine from the
// CPU model's pool: a second pass through Run borrows all of them and, once
// the pool is warm, builds none.
func TestFigureSetBorrowsPooledMachines(t *testing.T) {
	cfg := core.DefaultConfig()
	leakP := attack.DefaultParams()
	leakP.Secret = []byte("SPECRUN")
	pass := func() {
		for _, d := range []string{"ipc", "fig9", "fig10", "fig11", "defense", "variants", "leak"} {
			p := attack.DefaultParams()
			if d == "leak" {
				p = leakP
			}
			if _, err := Run(context.Background(), d, cfg, p, 2); err != nil {
				t.Fatalf("%s: %v", d, err)
			}
		}
	}
	// Idle pooled machines are released when the collector runs twice;
	// keep it off so the miss count depends on the pool alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pass()
	before := core.MachinePoolStats()
	pass()
	after := core.MachinePoolStats()
	if n := (after.Hits + after.Misses) - (before.Hits + before.Misses); n != figureSetSims {
		t.Errorf("a figure set borrowed %d machines, want %d", n, figureSetSims)
	}
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Errorf("a warm figure set built %d machines, want 0", misses)
	}
}
