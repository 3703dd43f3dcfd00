package main

import (
	"context"
	"testing"

	"specrun/internal/difftest"
	"specrun/internal/leak"
	"specrun/internal/sweep"
)

// The traced figure set repeats every driver simulation through the layers'
// public functions; each must reproduce the driver's statistics exactly, or
// the spans would time different work.
func TestTracedFiguresReproduceDrivers(t *testing.T) {
	ctx := context.Background()
	f := &figures{}
	if err := f.prepare(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.op(ctx, 0, 0); v.outcome != pass {
		t.Fatalf("reference figure set: %s", v.detail)
	}
	tr := newTracer()
	tot := &simTotals{}
	if v := f.repeat(ctx, tr, 1, 0, newMachinePool(), tot); v.outcome != pass {
		t.Fatalf("repeated figure set: %s", v.detail)
	}
	spans := tr.snapshot()
	if n := count(spans, "cpu.run"); n != 34 {
		t.Fatalf("%d cpu.run spans, want the figure set's 34 simulations", n)
	}
	if tot.cycles == 0 || tot.fetched == 0 {
		t.Fatal("no simulated statistics folded")
	}
}

// A traced campaign round is assembled from the oracles' per-seed public
// functions; its reports must match difftest.Run and leak.Run over the
// same ranges, and the per-layer repeat must reproduce CheckSeed's
// statistics.
func TestTracedCampaignRoundMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campaign round twice")
	}
	ctx := context.Background()
	c := &campaign{}
	if err := c.prepare(ctx, 1); err != nil {
		t.Fatal(err)
	}
	const k = 3
	r := c.tracedRound(ctx, newTracer(), k, 0)
	if r.verdict.outcome != pass {
		t.Fatalf("traced round: %s", r.verdict.detail)
	}
	fz, lk := c.specs(k)
	opt := sweep.Options{Workers: workers}
	dr, err := difftest.Run(ctx, fz, opt)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := leak.Run(ctx, lk, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.runs != dr.Runs || len(r.divs) != len(dr.Divergences) {
		t.Fatalf("difftest: traced %d runs/%d divergences, Run %d/%d", r.runs, len(r.divs), dr.Runs, len(dr.Divergences))
	}
	if r.leak.Runs != lr.Runs || len(r.leak.Findings) != len(lr.Findings) || len(r.leak.Corpus) != len(lr.Corpus) {
		t.Fatalf("leak: traced %d runs/%d findings, Run %d/%d", r.leak.Runs, len(r.leak.Findings), lr.Runs, len(lr.Findings))
	}
	for i, f := range r.leak.Findings {
		if g := lr.Findings[i]; f.Seed != g.Seed || f.Config != g.Config || f.Kind != g.Kind || f.PC != g.PC {
			t.Fatalf("finding %d: traced %+v, Run %+v", i, f, g)
		}
	}
	for i, row := range r.leak.Corpus {
		if g := lr.Corpus[i]; row.Program != g.Program || row.Config != g.Config || row.Leak != g.Leak || row.Error != g.Error {
			t.Fatalf("corpus row %d: traced %+v, Run %+v", i, row, g)
		}
	}
	if v := c.layerRepeat(ctx, newTracer(), k, r.seedStats, newMachinePool(), &simTotals{}); v.outcome != pass {
		t.Fatalf("layer repeat: %s", v.detail)
	}
}

// Leak seed 802 livelocks on the tiny configuration (a known simulator
// defect).  The oracle reports it as a run_error, which must count as a
// failed operation — never a wrong output, never a filtered seed.  Seed 0's
// ranges start where `specrun fuzz --leaks` starts, so one of its
// operations covers 802.
func TestLivelockRunErrorFailsTheOperation(t *testing.T) {
	c := &campaign{base: 0*1_000_000 + 1, cfgs: difftest.Matrix(false)}
	if _, lk := c.specs((802 - c.base) / leakSeeds); lk.SeedBase > 802 || lk.SeedBase+leakSeeds <= 802 {
		t.Fatalf("seed 0's leak ranges skip 802 (%d..)", lk.SeedBase)
	}
	corpus := []leak.CorpusRow{{Program: "pht", Config: "original-rob256", Leak: true}}
	rep := leak.Report{Corpus: corpus, Findings: []leak.Finding{{Seed: 802, Config: "tiny", Kind: leak.KindRunError, Detail: "cpu: cycle budget exhausted before HALT"}}}
	if v := c.check(nil, fuzzSeeds*len(c.cfgs), rep); v.outcome != fail {
		t.Fatalf("run_error classified %v, want a failed operation", v.outcome)
	}
	if testing.Short() {
		return
	}
	lr, err := leak.Run(context.Background(), difftest.CampaignSpec{Seeds: 1, SeedBase: 802, Leaks: true}, sweep.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if v := c.check(nil, fuzzSeeds*len(c.cfgs), lr); v.outcome != fail {
		t.Fatalf("seed 802 report classified %v (%s), want a failed operation", v.outcome, v.detail)
	}
}
