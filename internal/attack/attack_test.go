package attack

import (
	"bytes"
	"context"
	"testing"

	"specrun/internal/cpu"
	"specrun/internal/runahead"
)

// TestFig9PHTLeak reproduces Fig. 9: after the SPECRUN PoC, the probe-array
// access time dips exactly at the secret index (86 in the paper).
func TestFig9PHTLeak(t *testing.T) {
	r, err := Run(cpu.DefaultConfig(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := r.LeakedByte()
	if !ok || b != 86 {
		t.Fatalf("leaked %d (ok=%v), want 86; best=%d lat=%d median=%d",
			b, ok, r.BestIdx, r.BestLat, r.Median)
	}
	// The covert-channel signal must be unambiguous: one deep dip.
	low := 0
	for _, v := range r.Latencies {
		if v < r.Median/hitFactor {
			low++
		}
	}
	if low != 1 {
		t.Fatalf("%d indices below threshold, want exactly 1", low)
	}
}

// TestFig11BeyondROB reproduces Fig. 11: with the secret access pushed past
// the reorder buffer by NOP padding, only the runahead machine leaks (at
// index 127 in the paper); the no-runahead machine shows no latency drop.
func TestFig11BeyondROB(t *testing.T) {
	p := DefaultParams()
	p.Secret = []byte{127}
	p.NopPad = 300

	ra, err := Run(cpu.DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := ra.LeakedByte(); !ok || b != 127 {
		t.Errorf("runahead machine: leaked %d ok=%v, want 127", b, ok)
	}
	if ra.Stats.RunaheadEpisodes == 0 || ra.Stats.INVBranches == 0 {
		t.Error("the runahead leak must come from an unresolved branch in runahead mode")
	}

	no := cpu.DefaultConfig()
	no.Runahead.Kind = runahead.KindNone
	rNo, err := Run(no, p)
	if err != nil {
		t.Fatal(err)
	}
	if rNo.Leaked {
		t.Errorf("no-runahead machine leaked index %d — the ROB bound should prevent it", rNo.BestIdx)
	}
}

// TestVariantsLeak exercises §4.4: SpectreBTB and both SpectreRSB forms leak
// under runahead execution.
func TestVariantsLeak(t *testing.T) {
	for _, v := range []Variant{VariantBTB, VariantRSBOverwrite, VariantRSBFlush} {
		t.Run(v.String(), func(t *testing.T) {
			p := DefaultParams()
			p.Variant = v
			p.Secret = []byte{99}
			if v == VariantBTB {
				// The BTB gadget is architecturally warmed by training, so
				// it can carry Fig. 11-style padding too.
				p.NopPad = 300
			}
			cfg := ConfigFor(v, cpu.DefaultConfig())
			r, err := Run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := r.LeakedByte(); !ok || b != 99 {
				t.Fatalf("leaked %d ok=%v, want 99 (best=%d lat=%d median=%d)",
					b, ok, r.BestIdx, r.BestLat, r.Median)
			}
		})
	}
}

// TestRunaheadVariantsLeak exercises §4.3: the PHT attack also works on the
// precise-runahead and vector-runahead machines.
func TestRunaheadVariantsLeak(t *testing.T) {
	for _, kind := range []runahead.Kind{runahead.KindPrecise, runahead.KindVector} {
		t.Run(kind.String(), func(t *testing.T) {
			p := DefaultParams()
			p.Secret = []byte{42}
			p.NopPad = 300 // force the leak through the runahead window
			cfg := cpu.DefaultConfig()
			cfg.Runahead.Kind = kind
			r, err := Run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if r.Stats.RunaheadEpisodes == 0 {
				t.Fatal("no runahead episodes")
			}
			if b, ok := r.LeakedByte(); !ok || b != 42 {
				t.Fatalf("leaked %d ok=%v, want 42", b, ok)
			}
		})
	}
}

// TestDefenseBlocksLeak verifies §6: both the SL-cache scheme and the
// skip-INV-branch restriction stop the Fig. 11 attack.
func TestDefenseBlocksLeak(t *testing.T) {
	p := DefaultParams()
	p.Secret = []byte{127}
	p.NopPad = 300

	t.Run("sl-cache", func(t *testing.T) {
		cfg := cpu.DefaultConfig()
		cfg.Secure.Enabled = true
		r, err := Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.RunaheadEpisodes == 0 {
			t.Fatal("secure machine never entered runahead (defense untested)")
		}
		if r.Leaked {
			t.Fatalf("secure runahead leaked index %d", r.BestIdx)
		}
	})
	t.Run("skip-inv-branch", func(t *testing.T) {
		cfg := cpu.DefaultConfig()
		cfg.Runahead.SkipINVBranch = true
		r, err := Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.SkipBarriers == 0 {
			t.Fatal("mitigation never engaged")
		}
		if r.Leaked {
			t.Fatalf("skip-INV-branch machine leaked index %d", r.BestIdx)
		}
	})
}

// TestDefenseDoesNotBreakVictim: under the secure scheme the victim still
// computes correctly (the PoC halts and the probe ran).
func TestDefenseDoesNotBreakVictim(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.Secure.Enabled = true
	r, err := Run(cfg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Latencies) != probeCount {
		t.Fatal("probe loop did not complete")
	}
}

// TestLeakSecretMultiByte extracts a multi-byte secret end to end, as the
// paper's attacker would, byte by byte.
func TestLeakSecretMultiByte(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-byte extraction is slow")
	}
	secret := []byte("SPECRUN")
	p := DefaultParams()
	p.Secret = secret
	got, results, err := LeakSecret(context.Background(), cpu.DefaultConfig(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("recovered %q, want %q", got, secret)
	}
	for i, r := range results {
		if !r.Leaked {
			t.Errorf("byte %d: channel did not fire", i)
		}
	}
}

// Run tunes the machine for its variant (ConfigFor), so LeakSecret on the
// untuned default configuration extracts a SpectreBTB secret too.
func TestLeakSecretBTBUntunedConfig(t *testing.T) {
	p := DefaultParams()
	p.Variant = VariantBTB
	p.Secret = []byte("AB")
	got, _, err := LeakSecret(context.Background(), cpu.DefaultConfig(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "AB" {
		t.Fatalf("recovered %q, want %q", got, "AB")
	}
}

// TestLeakBeyondFirstSecretLine pins that the channel reaches secret bytes
// past the first cache line: the prologue must warm the line holding the
// targeted byte, not only the secret's first line.
func TestLeakBeyondFirstSecretLine(t *testing.T) {
	secret := make([]byte, 200)
	for i := range secret {
		secret[i] = byte(32 + i%95)
	}
	for _, idx := range []int{64, len(secret) - 1} {
		p := DefaultParams()
		p.Secret = secret
		p.SecretIdx = idx
		r, err := Run(cpu.DefaultConfig(), p)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := r.LeakedByte(); !ok || b != secret[idx] {
			t.Errorf("secret_idx %d: leaked %d ok=%v, want %d", idx, b, ok, secret[idx])
		}
	}
}

// TestFig10Windows reproduces the N1/N2/N3 shape of Fig. 10: N1 is bounded
// by the ROB (255 on the Table 1 machine), a single runahead episode exceeds
// it, and repeated flushing goes substantially further.
func TestFig10Windows(t *testing.T) {
	n1, n2, n3, err := MeasureAllWindows(context.Background(), cpu.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("N1=%d N2=%d N3=%d", n1.N, n2.N, n3.N)
	if n1.N != 255 {
		t.Errorf("N1 = %d, want exactly ROB-1 = 255", n1.N)
	}
	if n1.Episodes != 0 {
		t.Errorf("scenario ① must not enter runahead")
	}
	if n2.N <= n1.N {
		t.Errorf("N2 = %d must exceed the ROB bound %d", n2.N, n1.N)
	}
	if n3.N < 2*n2.N {
		t.Errorf("N3 = %d should substantially exceed N2 = %d", n3.N, n2.N)
	}
	if n3.N <= 700 || n3.N >= 1000 {
		t.Errorf("N3 = %d outside the calibrated band (paper: 840)", n3.N)
	}
}

// TestAnalyze covers the classifier on synthetic sweeps.
func TestAnalyze(t *testing.T) {
	flat := make([]uint64, probeCount)
	for i := range flat {
		flat[i] = 240
	}
	a := Analyze(flat)
	if a.Leaked {
		t.Error("flat sweep must not classify as leaked")
	}
	dip := append([]uint64(nil), flat...)
	dip[86] = 10
	a = Analyze(dip)
	if b, ok := a.LeakedByte(); !ok || b != 86 {
		t.Errorf("dip sweep: leaked %d ok=%v", b, ok)
	}
	if a := Analyze(nil); a.Leaked || a.BestIdx != -1 {
		t.Error("empty sweep must not leak")
	}
}

// TestBuildValidation covers parameter validation.
func TestBuildValidation(t *testing.T) {
	p := DefaultParams()
	p.Secret = nil
	if _, _, err := Build(p); err == nil {
		t.Error("empty secret must fail")
	}
	p = DefaultParams()
	p.SecretIdx = 5
	if _, _, err := Build(p); err == nil {
		t.Error("out-of-range secret index must fail")
	}
	p = DefaultParams()
	p.Variant = Variant(99)
	if _, _, err := Build(p); err == nil {
		t.Error("unknown variant must fail")
	}
}
