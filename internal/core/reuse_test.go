package core

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/workload"
)

// TestRunProgramStatsMatchesFreshMachine pins the pooled-machine contract:
// RunProgramStats (which reuses one machine per worker per configuration)
// must return statistics byte-identical to a throwaway fresh machine, on
// first use and on every pooled reuse after it.
func TestRunProgramStatsMatchesFreshMachine(t *testing.T) {
	k, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultConfig(), BaselineConfig(), SecureConfig()} {
		m, err := RunProgram(cfg, k.Build())
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(m.Stats())
		// Three rounds: the first typically builds the pooled machine, the
		// rest exercise Reset-reuse.
		for round := 0; round < 3; round++ {
			st, err := RunProgramStats(cfg, k.Build())
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(&st)
			if string(got) != string(want) {
				t.Fatalf("round %d: pooled stats diverged:\nfresh:  %s\npooled: %s", round, want, got)
			}
		}
	}
}

// A cancel lands within one slice of at most 64K cycles: cancelling from the
// first progress report of a program that never halts stops it before
// another slice completes.
func TestRunProgramCancelWithinOneSlice(t *testing.T) {
	const maxSlice = 1 << 16
	prog := asm.MustParse("loop", "loop: beq r0, r0, loop")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reports []uint64
	_, err := RunProgramStatsCtx(ctx, DefaultConfig(), prog, 1<<30, func(cycles, _ uint64) {
		reports = append(reports, cycles)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(reports) == 0 || reports[0] > maxSlice {
		t.Fatalf("progress reports %v: first slice over %d cycles", reports, maxSlice)
	}
	if last := reports[len(reports)-1]; len(reports) > 2 || last > reports[0]+maxSlice {
		t.Fatalf("progress reports %v: more than one slice after the cancel", reports)
	}
}
