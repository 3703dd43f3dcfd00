// Package faultinject provides deterministic, seed-driven fault points for
// the crash-safety layers: disk read/write errors, fsync failures, journal
// write errors and injected worker panics.
//
// The points are compiled into the production paths but are provably inert
// unless a plan is installed: every check starts with one atomic pointer
// load against nil, the same pattern as cpu.SetObserver/SetTracer, so the
// perf floor is unaffected when chaos is off.
//
// Determinism: each point keeps a per-point hit counter, and whether hit n
// of a point fires is a pure function of (seed, point, n).  Two fire rules
// compose per point:
//
//   - First: hits 1..First fire unconditionally (exact, scheduling-proof —
//     the chaos identity suites use this).
//   - Rate: hit n additionally fires when splitmix64(seed, point, n) mod
//     Rate == 0, roughly one in Rate hits, reproducible per seed.
//
// Which goroutine observes a given hit index depends on scheduling, but the
// set of faulted hit indices per point does not — and because every SPECRUN
// simulation is idempotent, retried work converges to byte-identical
// results regardless of interleaving.
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Point names one instrumented failure site.  A point's number seeds its
// fire pattern, so a point keeps its number for good.
type Point uint8

const (
	DiskWrite    Point = iota // rescache disk tier: entry write fails
	DiskRead                  // rescache disk tier: entry read fails
	Fsync                     // any fsync (cache entries, journal records)
	JournalWrite              // server job journal: append fails
	WorkerPanic               // sweep engine: worker panics before running a job
	numPoints
)

var pointNames = [numPoints]string{
	DiskWrite:    "disk.write",
	DiskRead:     "disk.read",
	Fsync:        "fsync",
	JournalWrite: "journal.write",
	WorkerPanic:  "worker.panic",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return "point(" + strconv.Itoa(int(p)) + ")"
}

// PointConfig selects when one point fires.  Zero values disable a rule;
// a PointConfig with both rules zero never fires.
type PointConfig struct {
	First uint64 // hits 1..First fire unconditionally
	Rate  uint64 // additionally fire ~one in Rate hits, seed-scrambled
}

// Config is a fault plan.
type Config struct {
	Seed   uint64
	Points map[Point]PointConfig
}

// plan is the installed runtime state.
type plan struct {
	cfg  Config
	hits [numPoints]atomic.Uint64
}

var active atomic.Pointer[plan]

// injected is the sentinel all fault-point errors wrap, so callers and tests
// can errors.Is them apart from real failures.
var injected = errors.New("injected fault")

// IsInjected reports whether err came from a fault point.
func IsInjected(err error) bool { return errors.Is(err, injected) }

// Enable installs a fault plan (replacing any previous one).
func Enable(cfg Config) {
	p := &plan{cfg: cfg}
	active.Store(p)
}

// Disable removes the plan; every point becomes inert again.
func Disable() { active.Store(nil) }

// Active reports whether a plan is installed.
func Active() bool { return active.Load() != nil }

// TotalFired reports how many faults have fired since Enable (0 when inert).
var totalFired atomic.Uint64

// Fired returns the process-lifetime count of faults that fired.
func Fired() uint64 { return totalFired.Load() }

// Fire reports whether point pt faults on this hit.  Inert (one atomic nil
// check) when no plan is installed.
func Fire(pt Point) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	return p.fire(pt)
}

// Err returns an injected error when point pt fires, nil otherwise.
func Err(pt Point) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	if p.fire(pt) {
		return fmt.Errorf("faultinject: %s: %w", pt, injected)
	}
	return nil
}

func (p *plan) fire(pt Point) bool {
	pc, ok := p.cfg.Points[pt]
	if !ok {
		return false
	}
	n := p.hits[pt].Add(1)
	fired := false
	if pc.First > 0 && n <= pc.First {
		fired = true
	} else if pc.Rate > 0 && splitmix64(p.cfg.Seed^(uint64(pt)<<56)^n)%pc.Rate == 0 {
		fired = true
	}
	if fired {
		totalFired.Add(1)
	}
	return fired
}

// splitmix64 is the SplitMix64 finalizer: a bijective scramble, so the fire
// pattern is a reproducible pseudo-random function of (seed, point, hit).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ParseEnv parses the SPECRUN_FAULTS knob:
//
//	seed=42;rate=16;first=0;points=disk.write,worker.panic
//
// Fields are semicolon-separated.  rate/first apply to every listed point;
// points is a comma-separated list of point names (see Point.String).  An
// empty string yields an all-zero Config and enabled=false.
func ParseEnv(s string) (Config, bool, error) {
	cfg := Config{Points: map[Point]PointConfig{}}
	if strings.TrimSpace(s) == "" {
		return cfg, false, nil
	}
	var pc PointConfig
	var pts []Point
	for _, field := range strings.Split(s, ";") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return cfg, false, fmt.Errorf("faultinject: bad field %q (want key=value)", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cfg, false, fmt.Errorf("faultinject: seed: %w", err)
			}
			cfg.Seed = n
		case "rate":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cfg, false, fmt.Errorf("faultinject: rate: %w", err)
			}
			pc.Rate = n
		case "first":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cfg, false, fmt.Errorf("faultinject: first: %w", err)
			}
			pc.First = n
		case "points":
			for _, name := range strings.Split(v, ",") {
				name = strings.TrimSpace(name)
				pt, err := pointByName(name)
				if err != nil {
					return cfg, false, err
				}
				pts = append(pts, pt)
			}
		default:
			return cfg, false, fmt.Errorf("faultinject: unknown field %q", k)
		}
	}
	if len(pts) == 0 {
		return cfg, false, fmt.Errorf("faultinject: no points listed")
	}
	if pc.Rate == 0 && pc.First == 0 {
		return cfg, false, fmt.Errorf("faultinject: neither rate nor first set")
	}
	for _, pt := range pts {
		cfg.Points[pt] = pc
	}
	return cfg, true, nil
}

func pointByName(name string) (Point, error) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), nil
		}
	}
	return 0, fmt.Errorf("faultinject: unknown point %q (known: %s)", name, strings.Join(pointNames[:], ", "))
}
