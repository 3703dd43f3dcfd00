package faultinject

import (
	"testing"
)

func TestInertWhenDisabled(t *testing.T) {
	Disable()
	if Active() {
		t.Fatal("active with no plan")
	}
	for pt := Point(0); pt < numPoints; pt++ {
		if Fire(pt) {
			t.Fatalf("%s fired while disabled", pt)
		}
		if err := Err(pt); err != nil {
			t.Fatalf("%s errored while disabled: %v", pt, err)
		}
	}
}

func TestFirstKFiresExactly(t *testing.T) {
	Enable(Config{Points: map[Point]PointConfig{DiskWrite: {First: 3}}})
	defer Disable()
	fired := 0
	for i := 0; i < 100; i++ {
		if Fire(DiskWrite) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("first=3 fired %d times over 100 hits", fired)
	}
	// Other points are untouched.
	if Fire(DiskRead) {
		t.Fatal("unconfigured point fired")
	}
}

// TestRateDeterministicPerSeed pins the seed-driven rule: the set of firing
// hit indices is a pure function of (seed, point), identical across plans.
func TestRateDeterministicPerSeed(t *testing.T) {
	pattern := func(seed uint64) []bool {
		Enable(Config{Seed: seed, Points: map[Point]PointConfig{WorkerPanic: {Rate: 4}}})
		defer Disable()
		out := make([]bool, 256)
		for i := range out {
			out[i] = Fire(WorkerPanic)
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d differs across identical plans", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate=4 fired %d/%d hits, want a nontrivial fraction", fired, len(a))
	}
	// A different seed yields a different pattern.
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 fire identically over 256 hits")
	}
}

func TestErrIsInjected(t *testing.T) {
	Enable(Config{Points: map[Point]PointConfig{Fsync: {First: 1}}})
	defer Disable()
	err := Err(Fsync)
	if err == nil || !IsInjected(err) {
		t.Fatalf("Err = %v, want injected", err)
	}
	if err := Err(Fsync); err != nil {
		t.Fatalf("second hit errored: %v", err)
	}
}

func TestParseEnv(t *testing.T) {
	cfg, on, err := ParseEnv("seed=7;rate=8;points=disk.write,worker.panic")
	if err != nil || !on {
		t.Fatalf("parse: on=%v err=%v", on, err)
	}
	if cfg.Seed != 7 {
		t.Fatalf("cfg = %+v", cfg)
	}
	for _, pt := range []Point{DiskWrite, WorkerPanic} {
		if cfg.Points[pt].Rate != 8 {
			t.Fatalf("%s rate = %d", pt, cfg.Points[pt].Rate)
		}
	}
	if _, on, err := ParseEnv(""); on || err != nil {
		t.Fatalf("empty env: on=%v err=%v", on, err)
	}
	for _, bad := range []string{
		"rate=8",                       // no points
		"points=disk.write",            // no rule
		"seed=x;rate=1;points=fsync",   // bad number
		"rate=1;points=nope",           // unknown point
		"bogus",                        // not key=value
		"rate=1;points=fsync;what=no",  // unknown key
		"rate=1;points=fsync;stall=1s", // the stall point and its key are gone
		"rate=1;points=job.stall",
	} {
		if _, _, err := ParseEnv(bad); err == nil {
			t.Fatalf("ParseEnv(%q) accepted", bad)
		}
	}
}

// TestPointNumbersFixed: a point's number seeds its fire pattern, so a
// seeded plan fires on the same hits only while every point keeps its
// number.
func TestPointNumbersFixed(t *testing.T) {
	for want, name := range []string{"disk.write", "disk.read", "fsync", "journal.write", "worker.panic"} {
		if pt, err := pointByName(name); err != nil || int(pt) != want {
			t.Errorf("point %q = %d, %v; want %d", name, pt, err, want)
		}
	}
	if numPoints != 5 {
		t.Errorf("numPoints = %d, want 5", numPoints)
	}
}
