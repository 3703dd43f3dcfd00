package cpu

import (
	"container/list"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"specrun/internal/asm"
	"specrun/internal/mem"
	"specrun/internal/proggen"
	"specrun/internal/runahead"
)

// runPooled runs prog to HALT on a borrowed machine and returns its
// statistics, the way core.RunProgramStats does.
func runPooled(t *testing.T, cfg Config, prog *asm.Program) Stats {
	t.Helper()
	c := Borrow(cfg, prog)
	defer c.Release()
	if err := c.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	st := *c.Stats()
	st.EpisodeReaches = append([]uint64(nil), st.EpisodeReaches...)
	return st
}

// A shape keeps every field New sizes a structure from and drops exactly
// the three the tick loop reads from c.cfg.
func TestMachineShapeKey(t *testing.T) {
	base := DefaultConfig()
	for name, mut := range map[string]func(*Config){
		"runahead kind":   func(c *Config) { c.Runahead.Kind = runahead.KindVector },
		"skip-INV branch": func(c *Config) { c.Runahead.SkipINVBranch = true },
		"secure":          func(c *Config) { c.Secure.Enabled = true },
	} {
		cfg := base
		mut(&cfg)
		if shapeOf(cfg) != shapeOf(base) {
			t.Errorf("%s changes the shape; New never reads it", name)
		}
	}
	for name, mut := range map[string]func(*Config){
		"mem":                  func(c *Config) { c.Mem.L2.Size *= 2 },
		"branch":               func(c *Config) { c.Branch.BTBTagBits = 4 },
		"rob":                  func(c *Config) { c.ROBSize = 128 },
		"iq":                   func(c *Config) { c.IQSize = 20 },
		"sq":                   func(c *Config) { c.SQSize = 20 },
		"front q":              func(c *Config) { c.FrontQ = 32 },
		"int div":              func(c *Config) { c.IntDiv = 2 },
		"fp div":               func(c *Config) { c.FPDiv = 2 },
		"runahead cache bytes": func(c *Config) { c.Runahead.RunaheadCacheBytes = 1024 },
		"sl entries":           func(c *Config) { c.Secure.SLEntries = 32 },
	} {
		cfg := base
		mut(&cfg)
		if shapeOf(cfg) == shapeOf(base) {
			t.Errorf("%s is outside the shape; New sizes from it", name)
		}
	}
}

// The machine-pool LRU must evict the least-recently-used shape once more
// than machinePoolCap distinct shapes have live pools, and count every
// eviction.
func TestMachinePoolEviction(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	before := MachinePoolStats()

	// Touch more distinct shapes than the LRU holds.  Vary a field that
	// changes the shape but keeps simulations cheap.
	n := machinePoolCap + 8
	var firstKeyCfg Config
	for i := 0; i < n; i++ {
		cfg := noRunaheadConfig()
		cfg.FrontQ = 16 + i
		if i == 0 {
			firstKeyCfg = cfg
		}
		runPooled(t, cfg, prog)
	}

	after := MachinePoolStats()
	if after.Configs > machinePoolCap {
		t.Fatalf("live shapes %d exceed the cap %d", after.Configs, machinePoolCap)
	}
	if gained := after.Evictions - before.Evictions; gained < uint64(n-machinePoolCap) {
		t.Fatalf("evictions grew by %d, want >= %d", gained, n-machinePoolCap)
	}
	if after.Capacity != machinePoolCap {
		t.Fatalf("capacity = %d, want %d", after.Capacity, machinePoolCap)
	}

	// The evicted shape still simulates correctly on a rebuilt pool, and
	// results are identical to the pre-eviction run.
	st1 := runPooled(t, firstKeyCfg, prog)
	st2 := runPooled(t, firstKeyCfg, prog)
	if st1.Cycles != st2.Cycles || st1.Committed != st2.Committed {
		t.Fatalf("rebuilt pool diverges: %+v vs %+v", st1, st2)
	}
}

// Repeated touches of one shape must not evict anything, whichever of its
// configurations borrows.
func TestMachinePoolStableUnderReuse(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	before := MachinePoolStats().Evictions
	for _, k := range []runahead.Kind{runahead.KindNone, runahead.KindOriginal, runahead.KindPrecise, runahead.KindVector, runahead.KindNone} {
		cfg := DefaultConfig()
		cfg.Runahead.Kind = k
		runPooled(t, cfg, prog)
	}
	if after := MachinePoolStats().Evictions; after != before {
		t.Fatalf("reusing one shape evicted %d pools", after-before)
	}
}

// Pool reuse counters: the first run of a shape is a miss, repeats on the
// same sequential pool are hits — also when the repeats switch the fields
// outside the shape.  Every run is exactly one hit or one miss.
func TestMachinePoolHitMissCounters(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	cfg := noRunaheadConfig()
	cfg.FrontQ = 4095 // unique shape: this test owns its pool
	// Two collections in a row release an idle machine; keep the collector
	// off so the counts depend on the pool alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	before := MachinePoolStats()
	runPooled(t, cfg, prog)
	mid := MachinePoolStats()
	if gained := mid.Misses - before.Misses; gained != 1 {
		t.Fatalf("first run grew misses by %d, want 1", gained)
	}
	secure, skip := cfg, cfg
	secure.Secure.Enabled = true
	skip.Runahead.Kind = runahead.KindOriginal
	skip.Runahead.SkipINVBranch = true
	for _, c := range []Config{cfg, secure, skip} {
		runPooled(t, c, prog)
	}
	after := MachinePoolStats()
	hits, misses := after.Hits-mid.Hits, after.Misses-mid.Misses
	if hits != 3 || misses != 0 {
		t.Fatalf("3 repeats recorded %d hits + %d misses, want 3 hits", hits, misses)
	}
}

// A lent machine carries none of the taps its previous borrower installed.
func TestBorrowRemovesTaps(t *testing.T) {
	prog := proggen.Generate(7, proggen.DefaultOptions())
	cfg := noRunaheadConfig()
	cfg.FrontQ = 4093 // unique shape: this test owns its pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	events := 0
	c := Borrow(cfg, prog)
	c.SetSampler(1, func(Sample) { events++ })
	c.SetTracer(func(TraceEvent) { events++ })
	c.SetCommitHook(func(CommitRecord) { events++ })
	c.SetObserver(func(Observation) { events++ })
	c.Hier().SetObserver(func(mem.CacheEvent) { events++ })
	c.SetPollingReference(true)
	first := c
	c.Release()

	if c = Borrow(cfg, prog); c != first {
		t.Fatal("the idle machine was not lent again")
	}
	defer c.Release()
	if err := c.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if events != 0 || c.pollSched {
		t.Fatalf("a lent machine kept its previous borrower's taps: %d events, polling %v", events, c.pollSched)
	}
}

// Idle machines age out with garbage collections: a machine idle across
// one collection is still lent, one idle across two is released.
func TestMachinePoolAgesIdleMachines(t *testing.T) {
	l := machinePool{ll: list.New(), entries: map[Config]*list.Element{}}
	p := l.shape(DefaultConfig())
	m := &CPU{}
	p.idle = append(p.idle, m)
	l.age()
	if got := p.pop(); got != m {
		t.Fatal("a machine idle across one collection was not lent")
	}
	p.idle = append(p.idle, m)
	l.age()
	l.age()
	if got := p.pop(); got != nil {
		t.Fatal("a machine idle across two collections was lent")
	}

	// The real collector drives the same aging.
	prog := proggen.Generate(7, proggen.DefaultOptions())
	cfg := noRunaheadConfig()
	cfg.FrontQ = 4094 // unique shape: this test owns its pool
	runPooled(t, cfg, prog)
	idle := func() int {
		machines.mu.Lock()
		defer machines.mu.Unlock()
		p := machines.shape(shapeOf(cfg))
		return len(p.idle) + len(p.victim)
	}
	if idle() != 1 {
		t.Fatal("a released machine is not idle in its pool")
	}
	for i := 0; idle() != 0; i++ {
		if i == 200 {
			t.Fatal("an idle machine survived 200 garbage collections")
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // let the finalizer goroutine age the pool
	}
}

// Concurrent lending: goroutines borrow, run and return machines across
// mixed configurations of two shapes at once, and every run must match a
// fresh machine's.  Under -race this also checks the pool's locking.
func TestMachinePoolConcurrentLending(t *testing.T) {
	var cfgs []Config
	for _, btbTagBits := range []int{0, 4} { // Table 1 and the BTB PoC's geometry
		for _, k := range []runahead.Kind{runahead.KindNone, runahead.KindOriginal, runahead.KindPrecise, runahead.KindVector} {
			cfg := DefaultConfig()
			cfg.Branch.BTBTagBits = btbTagBits
			cfg.Runahead.Kind = k
			cfgs = append(cfgs, cfg)
		}
		cfg := DefaultConfig()
		cfg.Branch.BTBTagBits = btbTagBits
		cfg.Secure.Enabled = true
		cfgs = append(cfgs, cfg)
	}
	progs := []*asm.Program{
		proggen.Generate(21, proggen.DefaultOptions()),
		proggen.Generate(22, proggen.DefaultOptions()),
	}
	type job struct {
		cfg  Config
		prog *asm.Program
		want string
	}
	var jobs []job
	for _, cfg := range cfgs {
		for _, prog := range progs {
			c := New(cfg, prog)
			if err := c.Run(20_000_000); err != nil {
				t.Fatal(err)
			}
			want, _ := json.Marshal(c.Stats())
			jobs = append(jobs, job{cfg, prog, string(want)})
		}
	}

	const goroutines = 4
	before := MachinePoolStats()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine walks the jobs from a different offset, so
			// shapes and configurations interleave across goroutines.
			for i := range jobs {
				j := jobs[(i+g*len(jobs)/goroutines)%len(jobs)]
				c := Borrow(j.cfg, j.prog)
				err := c.Run(20_000_000)
				got, _ := json.Marshal(c.Stats())
				c.Release()
				if err != nil {
					t.Errorf("borrowed run: %v", err)
				} else if string(got) != j.want {
					t.Errorf("borrowed run diverged from a fresh machine:\nfresh:    %s\nborrowed: %s", j.want, got)
				}
			}
		}()
	}
	wg.Wait()
	after := MachinePoolStats()
	if n := (after.Hits + after.Misses) - (before.Hits + before.Misses); n != goroutines*uint64(len(jobs)) {
		t.Fatalf("%d borrows recorded %d hits + misses", goroutines*len(jobs), n)
	}
}
