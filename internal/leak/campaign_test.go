package leak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/difftest"
	"specrun/internal/isa"
	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// TestCampaignFindsLeaks runs a small generated-seed campaign and pins the
// oracle's gross behaviour: the generator's Spectre-victim shape leaks on
// plenty of seeds, the sequential baseline never diverges (the shape's
// bounds check is architecturally always taken), and every leak finding
// carries a responsible PC, a cache line and a shrinker-minimized
// reproducer.
func TestCampaignFindsLeaks(t *testing.T) {
	spec := difftest.CampaignSpec{Seeds: 60, Leaks: true}
	rep, err := Run(context.Background(), spec, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || !rep.Clean {
		t.Fatalf("campaign reported %d errors (clean=%v): %+v", rep.Errors, rep.Clean, rep.Findings)
	}
	if rep.Leaks == 0 {
		t.Fatal("campaign found no leaks — the generator's Spectre shape stopped transmitting")
	}
	if rep.Runs != spec.Seeds*rep.Configs {
		t.Fatalf("runs = %d, want seeds×configs = %d", rep.Runs, spec.Seeds*rep.Configs)
	}
	if len(rep.Corpus) != len(CorpusVariants)*rep.Configs {
		t.Fatalf("corpus rows = %d, want variants×configs = %d", len(rep.Corpus), len(CorpusVariants)*rep.Configs)
	}
	for _, f := range rep.Findings {
		if f.Kind != KindLeak {
			t.Fatalf("unexpected finding kind %q: %+v", f.Kind, f)
		}
		if f.PC == 0 || f.Line == 0 {
			t.Errorf("seed %d/%s: leak without responsible PC/line: %+v", f.Seed, f.Config, f)
		}
		if f.Minimized == nil {
			t.Errorf("seed %d/%s: leak without minimized reproducer", f.Seed, f.Config)
		} else if f.Minimized.Options.SecretBytes != DefaultSecretBytes {
			t.Errorf("seed %d/%s: shrinker dropped the secret region: %+v", f.Seed, f.Config, f.Minimized.Options)
		}
	}
}

// TestCampaignCancelledInShrinkReportsError: a campaign cancelled after its
// last seed, while its shrink pass still has leaky seeds to minimize,
// returns the partial report with the context's error — the error a
// cancelled sweep returns — so no caller caches its unminimized findings
// as the finished report.
func TestCampaignCancelledInShrinkReportsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := difftest.CampaignSpec{Seeds: 40, Leaks: true}
	rep, err := Run(ctx, spec, sweep.Options{Workers: 2, OnProgress: func(done, total int) {
		if done == total {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign cancelled before its shrink pass returned %v, want context.Canceled", err)
	}
	if rep.Leaks == 0 || rep.Runs != spec.Seeds*rep.Configs {
		t.Fatalf("partial report lost the finished sweep: %d leaks over %d runs", rep.Leaks, rep.Runs)
	}
	for _, f := range rep.Findings {
		if f.Minimized != nil {
			t.Fatalf("seed %d/%s minimized after cancellation", f.Seed, f.Config)
		}
	}
}

// TestCampaignDeterministic pins worker-count independence: the report is a
// pure function of the spec.
func TestCampaignDeterministic(t *testing.T) {
	spec := difftest.CampaignSpec{Seeds: 12, Leaks: true, NoShrink: true}
	a, err := Run(context.Background(), spec, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, sweep.Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("reports differ across worker counts:\n%s\n%s", ja, jb)
	}
}

// TestCampaignSpecGuards pins the difftest/leak engine split: each engine
// rejects the other's specs.
func TestCampaignSpecGuards(t *testing.T) {
	if _, err := Run(context.Background(), difftest.CampaignSpec{Seeds: 1}, sweep.Options{}); err == nil {
		t.Error("leak.Run accepted a spec without Leaks")
	}
	if _, err := Run(context.Background(), difftest.CampaignSpec{Seeds: 1, Leaks: true, Interleave: true}, sweep.Options{}); err == nil {
		t.Error("leak.Run accepted Leaks+Interleave")
	}
	if _, err := difftest.Run(context.Background(), difftest.CampaignSpec{Seeds: 1, Leaks: true}, sweep.Options{}); err == nil {
		t.Error("difftest.Run accepted a Leaks spec")
	}
}

// TestLeakEvictionsCounted: the leak runner's machines live in a
// difftest.MachineCache, so a seed checked against more distinct
// configurations than RunnerCacheCap drops machines, and each drop counts
// in difftest.RunnerEvictions like the differential oracle's.
func TestLeakEvictionsCounted(t *testing.T) {
	base := difftest.Matrix(false)[1].Config
	cfgs := make([]difftest.NamedConfig, difftest.RunnerCacheCap+1)
	for i := range cfgs {
		nc := difftest.NamedConfig{Name: fmt.Sprintf("rob%d", 64+8*i), Config: base}
		nc.Config.ROBSize = 64 + 8*i
		cfgs[i] = nc
	}
	opt := proggen.DefaultOptions()
	opt.Len = 4
	opt.SecretBytes = DefaultSecretBytes
	before := difftest.RunnerEvictions()
	res := CheckSeed(1, opt, cfgs)
	if len(res.Ran) != len(cfgs) {
		t.Fatalf("ran %d of %d configurations: %+v", len(res.Ran), len(cfgs), res.Findings)
	}
	if got := difftest.RunnerEvictions() - before; got < 1 {
		t.Fatalf("RunnerEvictions rose by %d over %d configurations, want at least 1", got, len(cfgs))
	}
}

// TestMergeRounds pins --duration round folding, and that a later round
// may run the seed phase alone: merged, it gives the same report bytes as
// a full Run of that round.
func TestMergeRounds(t *testing.T) {
	spec := difftest.CampaignSpec{Seeds: 10, Leaks: true, NoShrink: true}
	a, err := Run(context.Background(), spec, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	next := spec
	next.SeedBase = 11
	b, err := Run(context.Background(), next, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := a.Merge(b)
	if m.Runs != a.Runs+b.Runs || m.Leaks != a.Leaks+b.Leaks || m.Spec.Seeds != 20 {
		t.Fatalf("merge totals wrong: %+v", m)
	}
	if len(m.Findings) != len(a.Findings)+len(b.Findings) {
		t.Fatalf("merge lost findings: %d + %d -> %d", len(a.Findings), len(b.Findings), len(m.Findings))
	}
	for i, s := range m.PerConfig {
		if s.Runs != a.PerConfig[i].Runs+b.PerConfig[i].Runs {
			t.Fatalf("per-config merge wrong for %s", s.Config)
		}
	}
	seedsOnly, err := RunSeeds(context.Background(), next, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seedsOnly.Corpus) != 0 {
		t.Fatalf("seed phase returned %d corpus rows", len(seedsOnly.Corpus))
	}
	full, _ := json.Marshal(m)
	later, _ := json.Marshal(a.Merge(seedsOnly))
	if string(full) != string(later) {
		t.Fatalf("a seed-phase round merges differently from a full round:\n%s\n%s", full, later)
	}
}

// TestSeqDivergenceClassified pins the oracle's second outcome class: when
// the two runs differ architecturally (here: the poked byte feeds an
// architectural load's address), the finding is a seq_divergence on the
// "iss" pseudo-config — not a leak — and no pipeline run happens.
func TestSeqDivergenceClassified(t *testing.T) {
	b := asm.NewBuilder(0x1000, 0x100000)
	buf := b.Alloc("buf", 128, 64)
	b.MoviAddr(isa.R(20), buf)
	b.Ldb(isa.R(1), isa.R(20), 0)
	b.Andi(isa.R(1), isa.R(1), 63)
	b.Ldbx(isa.R(2), isa.R(20), isa.R(1), 0, 0) // address depends on the poked byte
	b.Halt()
	prog := b.MustBuild()
	in := Input{
		Name:  "seq-divergent",
		ProgA: prog, ProgB: prog,
		PokeA: PokeBytes(buf, []byte{0x00}),
		PokeB: PokeBytes(buf, []byte{0x3F}),
	}
	r := NewRunner()
	f := r.CheckSeqBaseline(in)
	if f == nil {
		t.Fatal("expected a sequential divergence")
	}
	if f.Kind != KindSeqDivergence || f.Config != "iss" {
		t.Fatalf("got kind=%q config=%q, want seq_divergence on iss", f.Kind, f.Config)
	}
	if f.Detail == "" {
		t.Fatal("seq divergence without detail")
	}
}

// TestLeakRegressions replays shrinker-minimized reproducers from the first
// leak campaign (seeds 1..300, quick matrix): each must still be flagged as
// a leak under the configuration it was minimized against.
func TestLeakRegressions(t *testing.T) {
	base := proggen.Options{
		Len: 60, BufBytes: 4096, StackBytes: 1024,
		Loops: true, Calls: true, Gadgets: true, Flushes: true,
		FloatOps: true, Vector: true,
		SecretBytes: DefaultSecretBytes,
	}
	with := func(mod func(*proggen.Options)) proggen.Options {
		o := base
		mod(&o)
		return o
	}
	cases := []struct {
		seed   int64
		config string
		opt    proggen.Options
	}{
		{277, "original-rob256", with(func(o *proggen.Options) {
			o.Len = 2
			o.Loops, o.Calls, o.Flushes, o.FloatOps, o.Vector = false, false, false, false, false
		})},
		{260, "original-rob256", with(func(o *proggen.Options) {
			o.Len = 3
			o.Loops, o.Flushes = false, false
		})},
		{251, "tiny", with(func(o *proggen.Options) {
			o.Len = 4
			o.Loops, o.Calls, o.Flushes, o.FloatOps, o.Vector = false, false, false, false, false
		})},
		{237, "none-rob256", with(func(o *proggen.Options) {
			o.Len = 32
			o.BufBytes, o.StackBytes = 512, 256
			o.Loops, o.Calls, o.Flushes, o.FloatOps, o.Vector = false, false, false, false, false
		})},
	}
	byName := make(map[string]difftest.NamedConfig)
	for _, nc := range difftest.Matrix(false) {
		byName[nc.Name] = nc
	}
	for _, c := range cases {
		nc, ok := byName[c.config]
		if !ok {
			t.Fatalf("config %q missing from quick matrix", c.config)
		}
		res := CheckSeed(c.seed, c.opt, []difftest.NamedConfig{nc})
		leak := false
		for _, f := range res.Findings {
			if f.Kind == KindLeak && f.Config == c.config {
				leak = true
			} else {
				t.Errorf("seed %d/%s: unexpected finding %+v", c.seed, c.config, f)
			}
		}
		if !leak {
			t.Errorf("seed %d/%s: minimized reproducer no longer leaks", c.seed, c.config)
		}
	}
}
