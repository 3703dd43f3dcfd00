package main

import "testing"

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "sweep.run", ID: 1, Start: 0, End: 100},
		// Two parallel children overlapping on [30, 50], and one that
		// outlives its parent.
		{Name: "sweep.job", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "sweep.job", ID: 3, Parent: 1, Start: 30, End: 70},
		{Name: "sweep.job", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "cpu.run", ID: 5, Parent: 2, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	// Parent: 100 minus the union [10,70] ∪ [90,100] = 70, not the sum 110.
	want := map[int64]int64{1: 30, 2: 30, 3: 40, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
}

func TestPerOpAggregation(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Op: 1, Start: 0, End: 100},
		{Name: "cpu.run", ID: 2, Parent: 1, Op: 1, Start: 0, End: 40},
		{Name: "cpu.run", ID: 3, Parent: 1, Op: 1, Start: 50, End: 70},
		{Name: "op", ID: 4, Op: 2, Start: 100, End: 150},
		{Name: "cpu.run", ID: 5, Parent: 4, Op: 2, Start: 100, End: 130},
		{Name: "op", ID: 6, Op: 3, Start: 150, End: 160},
	}
	by := perOpSelf(spans)
	if by["cpu.run"][1] != 60 || by["cpu.run"][2] != 30 {
		t.Fatalf("cpu.run per op = %v, want op1=60 op2=30", by["cpu.run"])
	}
	if by["op"][1] != 40 || by["op"][2] != 20 || by["op"][3] != 10 {
		t.Fatalf("op self per op = %v, want 40/20/10", by["op"])
	}
	// Op 3 ran no cpu.run span: it still counts in the mean.
	if got := meanPerOp(by["cpu.run"], 3); got != 30 {
		t.Fatalf("mean cpu.run per op = %v, want 30", got)
	}
	if got := perCall(spans, "cpu.run"); got != 30 {
		t.Fatalf("mean cpu.run per call = %v, want 30", got)
	}
	m := map[string]float64{}
	layerTimes(spans, 3, m, map[string]string{"cpu.run_ms": "cpu.run", "iss.run_us": "iss.run"})
	if m["cpu.run_ms"] != 30/1e6 || m["iss.run_us"] != 0 {
		t.Fatalf("layerTimes = %v", m)
	}
}

func TestSweepShares(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Op: 1, Start: 0, End: 100},
		{Name: "sweep.run", ID: 2, Parent: 1, Op: 1, Start: 0, End: 80},
		{Name: "sweep.job", ID: 3, Parent: 2, Op: 1, Start: 0, End: 60},
		{Name: "sweep.job", ID: 4, Parent: 2, Op: 1, Start: 0, End: 40},
		{Name: "sweep.job", ID: 5, Parent: 2, Op: 1, Start: 40, End: 80},
	}
	if got := concurrent(intervals(spans, "sweep.job"), 2, 0, 100); got != 60 {
		t.Fatalf("two jobs at once for %d, want 60", got)
	}
	m := map[string]float64{}
	sweepShares(spans, m)
	// Jobs busy 140 of 2×80; one core idle for 40 of the op's 100.
	if m["sweep.busy_ratio"] != 140.0/160 || m["sweep.serial_share"] != 0.4 {
		t.Fatalf("shares = %v", m)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 25; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// p80 of 25 samples is the 20th smallest: five samples above it.
	if got := percentile(xs, 80); got != 20 {
		t.Fatalf("p80 = %v, want 20", got)
	}
	if got := percentile(xs, 99.9); got != 25 {
		t.Fatalf("p99.9 = %v, want the maximum", got)
	}
	if got := percentile(xs, 50); got != 13 {
		t.Fatalf("p50 = %v, want 13", got)
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 {
		t.Fatal("median of an even count")
	}
}

func TestPaperErrToday(t *testing.T) {
	// Fig. 7 mean 9.23% vs ~11%, N1/N2/N3 255/261/778 vs 255/480/840.
	if got := paperErrPct(1.0923, 255, 261, 778); got < 17.2 || got > 17.4 {
		t.Fatalf("paper_err_pct = %.3f, want ≈17.3", got)
	}
}
