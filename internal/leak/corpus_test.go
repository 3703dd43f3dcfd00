package leak

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"specrun/internal/difftest"
	"specrun/internal/sweep"
)

// TestGoldenCorpus pins the full variant×config leak matrix for the
// handwritten PoCs.  The two acceptance-critical rows:
//
//   - original-rob256 (runahead on, defenses off): every variant leaks.
//   - original-rob256-secure (SL-cache defense, §6): every variant is
//     suppressed.
//
// The rest of the table documents *why* each variant leaks:
//
//   - pht/btb pad the transient body beyond the ROB (Fig. 11), so they
//     transmit only during runahead — runahead-off (none-rob256) and the
//     skip-INV fetch barrier are clean, and tiny's L2 trigger level plus
//     32-entry ROB never reaches the padded body.
//   - The rsb variants stall on the return itself, transmitting under
//     plain wrong-path speculation too (none-rob256 leaks); only the SL
//     cache hides them.  skipinv additionally stops rsb-overwrite — its
//     poisoned return address is an INV operand, so fetch barriers before
//     the gadget — but not rsb-flush, whose stale RSB entry predicts the
//     gadget without consuming any INV value.
type corpusExpect struct {
	variant string
	leaky   map[string]bool // config name -> expected leak
}

func TestGoldenCorpus(t *testing.T) {
	expect := []corpusExpect{
		{"pht", map[string]bool{
			"none-rob256": false, "original-rob256": true, "precise-rob256": true,
			"vector-rob256": true, "original-rob256-secure": false,
			"skipinv-rob256": false, "original-rob48": true, "tiny": false,
		}},
		{"btb", map[string]bool{
			"none-rob256": false, "original-rob256": true, "precise-rob256": true,
			"vector-rob256": true, "original-rob256-secure": false,
			"skipinv-rob256": false, "original-rob48": true, "tiny": false,
		}},
		{"rsb-overwrite", map[string]bool{
			"none-rob256": true, "original-rob256": true, "precise-rob256": true,
			"vector-rob256": true, "original-rob256-secure": false,
			"skipinv-rob256": false, "original-rob48": true, "tiny": true,
		}},
		{"rsb-flush", map[string]bool{
			"none-rob256": true, "original-rob256": true, "precise-rob256": true,
			"vector-rob256": true, "original-rob256-secure": false,
			"skipinv-rob256": true, "original-rob48": true, "tiny": true,
		}},
	}

	cfgs := difftest.Matrix(false)
	rows, err := runCorpus(context.Background(), cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, len(expect)*len(cfgs))
	for _, e := range expect {
		if len(e.leaky) != len(cfgs) {
			t.Fatalf("expectation table for %s covers %d configs, matrix has %d", e.variant, len(e.leaky), len(cfgs))
		}
		for cfg, leak := range e.leaky {
			want[e.variant+"/"+cfg] = leak
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("corpus produced %d rows, expected %d", len(rows), len(want))
	}
	for _, r := range rows {
		key := r.Program + "/" + r.Config
		if r.Error != "" {
			t.Errorf("%s: run error: %s", key, r.Error)
			continue
		}
		wantLeak, ok := want[key]
		if !ok {
			t.Errorf("%s: row not covered by the expectation table", key)
			continue
		}
		if r.Leak != wantLeak {
			t.Errorf("%s: leak=%v, want %v", key, r.Leak, wantLeak)
		}
		if r.Leak && r.Line == 0 {
			t.Errorf("%s: leak reported without a responsible cache line", key)
		}
		if r.Leak && r.PC == 0 {
			t.Errorf("%s: leak reported without a responsible PC", key)
		}
	}
}

// TestCorpusDeterministic re-runs the corpus at one worker count and at
// another, and requires bit-identical rows: the oracle must be a pure
// function of the input, and the sweep must return the rows in variant-major
// order whichever worker ran which configuration.
func TestCorpusDeterministic(t *testing.T) {
	cfgs := difftest.Matrix(false)[:4]
	var first string
	for i, workers := range []int{1, 1, 4} {
		rows, err := runCorpus(context.Background(), cfgs, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%+v", rows)
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("corpus rows at %d workers differ from the first run at 1:\n%s\n%s", workers, first, got)
		}
	}
}

// TestCorpusGatedAndCancellable: the corpus runs inside a sweep.Gate on the
// campaign's context and stops when that context is cancelled.  With the
// gate's only token held elsewhere, no corpus simulation may start; the
// cancelled campaign returns the context's error and no corpus rows.
func TestCorpusGatedAndCancellable(t *testing.T) {
	gate := sweep.NewGate(1)
	if err := gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer gate.Release()
	ctx, cancel := context.WithCancel(sweep.WithGate(context.Background(), gate))
	defer cancel()
	go func() {
		for gate.Queued() == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rep, err := Run(ctx, difftest.CampaignSpec{Seeds: 1, Leaks: true}, sweep.Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign cancelled at the gate returned %v, want context.Canceled", err)
	}
	if len(rep.Corpus) != 0 {
		t.Fatalf("campaign cancelled at the gate returned %d corpus rows, want none", len(rep.Corpus))
	}
}
