package core

import (
	"context"
	"strings"
	"testing"

	"specrun/internal/runahead"
)

func TestTable1Render(t *testing.T) {
	out := Table1(DefaultConfig())
	for _, want := range []string{
		"256 entries", // ROB
		"i (40), load (40), store (40)",
		"16KB, 4 way, 2 cycle",  // L1s
		"128KB, 8 way, 8 cycle", // L2
		"4MB, 8 way, 32 cycle",  // L3
		"request-based contention model, 200 cycle",
		"two-level adaptive",
		"4 int add (1 cyc), 2 int mult (2 cyc), 1 int div (5 cyc)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q\n%s", want, out)
		}
	}
}

func TestConfigsDiffer(t *testing.T) {
	if BaselineConfig().Runahead.Kind != runahead.KindNone {
		t.Error("baseline must disable runahead")
	}
	if DefaultConfig().Runahead.Kind != runahead.KindOriginal {
		t.Error("default must enable original runahead")
	}
	if !SecureConfig().Secure.Enabled {
		t.Error("secure config must enable the defense")
	}
	if VariantConfig(runahead.KindVector).Runahead.Kind != runahead.KindVector {
		t.Error("variant config must select the kind")
	}
}

func TestFig9EndToEnd(t *testing.T) {
	r, err := RunFig9(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := r.LeakedByte(); !ok || b != 86 {
		t.Fatalf("Fig. 9: leaked %d ok=%v, want 86", b, ok)
	}
	plot := FormatProbe(r, 10)
	if !strings.Contains(plot, "leaked value: 86") {
		t.Errorf("probe plot missing leak annotation:\n%s", plot)
	}
}

func TestFig11EndToEnd(t *testing.T) {
	r, err := RunFig11(context.Background(), DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := r.Runahead.LeakedByte(); !ok || b != 127 {
		t.Errorf("runahead machine: leaked %d ok=%v, want 127", b, ok)
	}
	if r.NoRunahead.Leaked {
		t.Errorf("no-runahead machine must not leak (got index %d)", r.NoRunahead.BestIdx)
	}
}

func TestFig10EndToEnd(t *testing.T) {
	n1, n2, n3, err := RunFig10(context.Background(), DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n1.N != 255 || n2.N <= n1.N || n3.N <= n2.N {
		t.Errorf("window shape broken: N1=%d N2=%d N3=%d", n1.N, n2.N, n3.N)
	}
	out := FormatWindows(n1, n2, n3)
	if !strings.Contains(out, "paper: 840") {
		t.Errorf("window report incomplete:\n%s", out)
	}
}

func TestDefenseEndToEnd(t *testing.T) {
	d, err := RunDefense(context.Background(), DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Vulnerable.Leaked {
		t.Error("vulnerable machine must leak")
	}
	if d.Secure.Leaked {
		t.Error("SL-cache machine must not leak")
	}
	if d.SkipINV.Leaked {
		t.Error("skip-INV machine must not leak")
	}
	out := FormatDefense(d)
	if !strings.Contains(out, "LEAKED byte 127") || !strings.Contains(out, "no leak") {
		t.Errorf("defense report incomplete:\n%s", out)
	}
}

func TestVariantMatrixEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("variant matrix is slow")
	}
	rows, err := RunVariantMatrix(context.Background(), DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 variant rows, got %d", len(rows))
	}
	for _, r := range rows {
		if _, ok := r.Result.LeakedByte(); !ok {
			t.Errorf("%s: no leak", r.Label)
		}
	}
	out := FormatVariants(rows)
	if strings.Count(out, "leaked byte") != 6 {
		t.Errorf("variant report incomplete:\n%s", out)
	}
}

func TestIPCComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 sweep is slow")
	}
	rows, err := RunIPCComparison(context.Background(), DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 benchmarks, got %d", len(rows))
	}
	mean := MeanSpeedup(rows)
	t.Logf("\n%s", FormatIPC(rows))
	// The paper reports an average improvement of 11%; hold the shape within
	// a band wide enough to be robust to model tweaks.
	if mean < 1.05 || mean > 1.20 {
		t.Errorf("mean runahead speedup %.3f outside the 5%%..20%% band (paper: ~11%%)", mean)
	}
	for _, r := range rows {
		if r.Speedup < 0.99 {
			t.Errorf("%s: runahead loses (%0.3f)", r.Name, r.Speedup)
		}
	}
}
