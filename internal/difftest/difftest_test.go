package difftest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"specrun/internal/proggen"
	"specrun/internal/runahead"
	"specrun/internal/sweep"
)

func TestMatrixShapes(t *testing.T) {
	for _, tc := range []struct {
		full bool
		want int
	}{{false, 8}, {true, 19}} {
		m := Matrix(tc.full)
		if len(m) != tc.want {
			t.Fatalf("Matrix(%v): %d configs, want %d", tc.full, len(m), tc.want)
		}
		seen := map[string]bool{}
		for _, nc := range m {
			if seen[nc.Name] {
				t.Fatalf("Matrix(%v): duplicate config name %q", tc.full, nc.Name)
			}
			seen[nc.Name] = true
		}
	}
	// The full matrix must cover every runahead kind with and without the
	// §6 defense at both window sizes.
	names := map[string]bool{}
	for _, nc := range Matrix(true) {
		names[nc.Name] = true
	}
	for _, want := range []string{
		"none-rob48", "none-rob256-secure", "original-rob48-secure",
		"precise-rob256", "vector-rob48", "skipinv-rob256", "tiny",
	} {
		if !names[want] {
			t.Fatalf("full matrix missing %q", want)
		}
	}
}

// TestCleanSeeds is the headline property: random programs diverge nowhere
// across the quick matrix.
func TestCleanSeeds(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	cfgs := Matrix(false)
	opt := proggen.DefaultOptions()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		res := CheckSeed(seed, opt, cfgs)
		for _, d := range res.Divergences {
			t.Errorf("seed %d / %s: %s: %s", d.Seed, d.Config, d.Kind, d.Detail)
		}
		if len(res.PerConfig) != len(cfgs) {
			t.Fatalf("seed %d: %d config runs, want %d", seed, len(res.PerConfig), len(cfgs))
		}
	}
}

// TestRunaheadOffStreamEqualsBaseline pins the cross-configuration
// invariant commit-for-commit (not just transitively through the reference
// stream): a machine with runahead disabled and the SPECRUN-style machine
// commit the identical instruction stream.
func TestRunaheadOffStreamEqualsBaseline(t *testing.T) {
	off := point(runahead.KindNone, false, 256)
	on := point(runahead.KindOriginal, false, 256)
	rc := runnerCaches.Get()
	defer runnerCaches.Put(rc)
	for seed := int64(1); seed <= 4; seed++ {
		prog := proggen.Generate(seed, proggen.DefaultOptions())
		aShared, _, err := rc.pipeStream(off, prog)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, off.Name, err)
		}
		// pipeStream reuses the cache's record buffer; clone before the next
		// call overwrites it.
		a := append([]record(nil), aShared...)
		b, c, err := rc.pipeStream(on, prog)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, on.Name, err)
		}
		if d := diffStreams(a, b); d != "" {
			t.Fatalf("seed %d: runahead changed the commit stream: %s", seed, d)
		}
		if seed == 1 && c.Stats().Committed == 0 {
			t.Fatal("baseline committed nothing")
		}
	}
}

func TestDiffStreamsReportsFirstMismatch(t *testing.T) {
	a := []record{{pc: 0x1000, op: "add", dest: "r1", v: 1}, {pc: 0x1004, op: "sub", dest: "r2", v: 2}}
	b := []record{{pc: 0x1000, op: "add", dest: "r1", v: 1}, {pc: 0x1004, op: "sub", dest: "r2", v: 3}}
	if d := diffStreams(a, a); d != "" {
		t.Fatalf("identical streams diverged: %s", d)
	}
	if d := diffStreams(a, b); d == "" {
		t.Fatal("value mismatch not detected")
	}
	if d := diffStreams(a, a[:1]); d == "" {
		t.Fatal("length mismatch not detected")
	}
}

// TestCampaignDeterministicAcrossWorkers is the determinism invariant: the
// campaign report must be byte-identical at any worker count.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec := CampaignSpec{Seeds: 8, Matrix: "quick"}
	r1, err := Run(context.Background(), spec, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rN, err := Run(context.Background(), spec, sweep.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, rN) {
		t.Fatalf("campaign report depends on worker count:\n1 worker: %+v\n4 workers: %+v", r1, rN)
	}
	if r1.Runs != 8*len(Matrix(false)) {
		t.Fatalf("runs = %d, want %d", r1.Runs, 8*len(Matrix(false)))
	}
	for _, s := range r1.PerConfig {
		if s.Runs != 8 {
			t.Fatalf("config %s aggregated %d runs, want 8", s.Config, s.Runs)
		}
	}
	if !r1.Clean {
		t.Fatalf("campaign found divergences: %+v", r1.Divergences)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, CampaignSpec{Seeds: 50}, sweep.Options{Workers: 2})
	if err == nil {
		t.Fatal("cancelled campaign reported no error")
	}
	if rep.Runs == 50*rep.Configs {
		t.Fatal("cancelled campaign claims to have run everything")
	}
}

func TestCampaignBadSpec(t *testing.T) {
	for _, spec := range []CampaignSpec{
		{Matrix: "bogus"},
		{Seeds: -1},
		{Len: -5},
	} {
		if _, err := Run(context.Background(), spec, sweep.Options{}); err == nil {
			t.Fatalf("bad spec accepted: %+v", spec)
		}
	}
}

func TestReportMerge(t *testing.T) {
	a := Report{
		Spec: CampaignSpec{Seeds: 10}, Configs: 2, Runs: 20, Clean: true,
		PerConfig: []ConfigSummary{{Config: "x", Runs: 10, Episodes: 5}, {Config: "y", Runs: 10}},
	}
	b := Report{
		Spec: CampaignSpec{Seeds: 10, SeedBase: 11}, Configs: 2, Runs: 20, Clean: false,
		Divergences: []Divergence{{Seed: 15, Config: "x", Kind: KindFinalState}},
		PerConfig:   []ConfigSummary{{Config: "x", Runs: 10, Divergences: 1}, {Config: "z", Runs: 10}},
	}
	m := a.Merge(b)
	if m.Runs != 40 || m.Spec.Seeds != 20 || m.Clean {
		t.Fatalf("merged header wrong: %+v", m)
	}
	if len(m.Divergences) != 1 || m.Divergences[0].Seed != 15 {
		t.Fatalf("divergences lost: %+v", m.Divergences)
	}
	if len(m.PerConfig) != 3 {
		t.Fatalf("per-config rows = %d, want 3", len(m.PerConfig))
	}
	if x := m.PerConfig[0]; x.Config != "x" || x.Runs != 20 || x.Divergences != 1 || x.Episodes != 5 {
		t.Fatalf("config x merged wrong: %+v", x)
	}
}

// TestShrinkWithReduces drives the reduction loop with a synthetic failure
// predicate: the "bug" needs Loops enabled and at least 17 body
// instructions; everything else must be stripped.
func TestShrinkWithReduces(t *testing.T) {
	fails := func(o proggen.Options) bool { return o.Loops && o.Len >= 17 }
	got := ShrinkWith(context.Background(), proggen.DefaultOptions(), fails)
	if !fails(got) {
		t.Fatalf("shrunk options no longer fail: %+v", got)
	}
	if got.Len != 17 {
		t.Fatalf("len = %d, want 17", got.Len)
	}
	if got.Gadgets || got.Vector || got.FloatOps || got.Calls || got.Flushes {
		t.Fatalf("irrelevant features kept: %+v", got)
	}
	if !got.Loops {
		t.Fatalf("load-bearing feature dropped: %+v", got)
	}
	if got.BufBytes != 512 {
		t.Fatalf("buffer not reduced: %d", got.BufBytes)
	}
}

// TestShrinkOncePerSeed drives the engine's shrink pass with a synthetic
// predicate: each seed shrinks once, against its first failing
// configuration and inside a gate slot, every failure of the seed shares
// that reproducer, and a failure outside the configuration set (the
// reference interpreter's) is left alone.
func TestShrinkOncePerSeed(t *testing.T) {
	cfgs := Matrix(false)[:2]
	var mins [4]*Reproducer
	failures := []Failure{
		{Seed: 5, Config: cfgs[1].Name, Minimized: &mins[0]},
		{Seed: 5, Config: cfgs[0].Name, Minimized: &mins[1]},
		{Seed: 6, Config: "iss", Minimized: &mins[2]},
		{Seed: 7, Config: cfgs[0].Name, Minimized: &mins[3]},
	}
	gate := sweep.NewGate(1)
	shrunk := map[string]bool{}
	fails := func(seed int64, o proggen.Options, nc NamedConfig) bool {
		if gate.InFlight() != 1 {
			t.Errorf("seed %d shrinks outside a gate slot", seed)
		}
		shrunk[fmt.Sprintf("%d/%s", seed, nc.Name)] = true
		return o.Len >= 3
	}
	ShrinkOncePerSeed(sweep.WithGate(context.Background(), gate), proggen.DefaultOptions(), cfgs, failures, fails)

	want := map[string]bool{"5/" + cfgs[1].Name: true, "7/" + cfgs[0].Name: true}
	if !reflect.DeepEqual(shrunk, want) {
		t.Fatalf("shrunk %v, want %v", shrunk, want)
	}
	if mins[0] == nil || mins[1] != mins[0] || mins[0].Config != cfgs[1].Name || mins[0].Options.Len != 3 {
		t.Fatalf("seed 5 reproducers: %+v, %+v", mins[0], mins[1])
	}
	if mins[2] != nil {
		t.Fatalf("iss failure got a reproducer: %+v", mins[2])
	}
	if mins[3] == nil || mins[3].Seed != 7 {
		t.Fatalf("seed 7 reproducer: %+v", mins[3])
	}
	if gate.InFlight() != 0 {
		t.Fatalf("%d gate slots still held", gate.InFlight())
	}
}

// TestShrinkCancelledReportsError: a shrink pass that cancellation cuts
// short returns the context's error, so a campaign cancelled after its last
// seed cannot pass its unminimized report off as finished; the reduction
// it cut short and every later failure stay unminimized.  A pass that runs
// to the end returns nil.
func TestShrinkCancelledReportsError(t *testing.T) {
	cfgs := Matrix(false)[:1]
	run := func(cancelAt int) ([2]*Reproducer, error) {
		var mins [2]*Reproducer
		failures := []Failure{
			{Seed: 5, Config: cfgs[0].Name, Minimized: &mins[0]},
			{Seed: 7, Config: cfgs[0].Name, Minimized: &mins[1]},
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		fails := func(seed int64, o proggen.Options, nc NamedConfig) bool {
			if calls++; calls == cancelAt {
				cancel()
			}
			return o.Len >= 3
		}
		err := ShrinkOncePerSeed(ctx, proggen.DefaultOptions(), cfgs, failures, fails)
		return mins, err
	}
	mins, err := run(0)
	if err != nil || mins[0] == nil || mins[1] == nil {
		t.Fatalf("uncancelled pass: err %v, reproducers %+v", err, mins)
	}
	mins, err = run(1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pass cancelled in its first shrink returned %v, want context.Canceled", err)
	}
	if mins[0] != nil || mins[1] != nil {
		t.Fatalf("cancelled pass attached reproducers: %+v", mins)
	}
}
