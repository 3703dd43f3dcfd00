// Package leak is the microarchitectural noninterference oracle: where the
// difftest engine proves speculation *architecturally* invisible, this
// package checks whether it is *microarchitecturally* silent about secrets —
// the property SPECRUN breaks.
//
// The oracle is a two-run self-composition (following the compositional-
// semantics leak detectors).  A program runs twice with two secret
// valuations; the simulator is deterministic, so:
//
//  1. If the sequential (in-order, non-speculative) observation traces of
//     the two runs are equal, the program's architectural behaviour is
//     secret-independent — a constant-time-style baseline from the
//     reference interpreter (specrun/internal/iss).
//  2. Any difference between the corresponding *pipeline* observation
//     traces (cpu.SetObserver + mem.Hierarchy.SetObserver: cache-line
//     touches by speculative loads, runahead prefetches, fills, evictions
//     and SL-cache promotions) is then caused by speculation alone and
//     depends on the secret — a transmission gadget, reported with the
//     responsible PC and cache line.
//
// Sequential equality makes the full-trace pipeline diff equivalent to a
// diff of the speculative-only portions: every event the sequential
// semantics would emit appears identically in both pipeline runs.
package leak

import (
	"fmt"

	"specrun/internal/asm"
	"specrun/internal/cpu"
	"specrun/internal/difftest"
	"specrun/internal/iss"
	"specrun/internal/mem"
	"specrun/internal/proggen"
	"specrun/internal/sweep"
)

// Execution budgets (matching difftest; the attack PoCs fit comfortably).
const (
	issBudget = 5_000_000
	cpuBudget = 20_000_000
)

// EventKind classifies one normalized observation-trace event.
type EventKind uint8

const (
	// Pipeline-side events (cpu.Observation).
	EvLoad EventKind = iota
	EvPrefetch
	EvStore
	EvFlush
	EvSLPromote
	// Hierarchy-side events (mem.CacheEvent).
	EvFill
	EvEvict
	// Sequential-baseline events (iss.Observation).
	EvSeqLoad
	EvSeqStore
	EvSeqFlush
)

func (k EventKind) String() string {
	switch k {
	case EvLoad:
		return "load"
	case EvPrefetch:
		return "prefetch"
	case EvStore:
		return "store"
	case EvFlush:
		return "flush"
	case EvSLPromote:
		return "sl-promote"
	case EvFill:
		return "fill"
	case EvEvict:
		return "evict"
	case EvSeqLoad:
		return "seq-load"
	case EvSeqStore:
		return "seq-store"
	case EvSeqFlush:
		return "seq-flush"
	default:
		return "?"
	}
}

// Event is one normalized observation.  Events are comparable values; a
// trace is a []Event in emission order with no cycle numbers, so pure
// timing shifts between two runs never register as divergence.
type Event struct {
	PC    uint64 // 0 for hierarchy-internal fill/evict events
	Line  uint64 // line-aligned (pipeline) or raw effective address (sequential)
	Kind  EventKind
	Level uint8 // mem.Level for pipeline events
	Mode  uint8 // cpu.Mode for pipeline events
}

func (e Event) String() string {
	switch e.Kind {
	case EvFill, EvEvict:
		return fmt.Sprintf("{%s %s line=%#x}", e.Kind, mem.Level(e.Level), e.Line)
	case EvSeqLoad, EvSeqStore, EvSeqFlush:
		return fmt.Sprintf("{%s pc=%#x addr=%#x}", e.Kind, e.PC, e.Line)
	}
	mode := "normal"
	if cpu.Mode(e.Mode) == cpu.ModeRunahead {
		mode = "runahead"
	}
	return fmt.Sprintf("{%s pc=%#x line=%#x %s %s}", e.Kind, e.PC, e.Line, mem.Level(e.Level), mode)
}

// Finding kinds.
const (
	// KindLeak is a confirmed speculative leak: equal sequential baselines,
	// divergent pipeline observation traces.
	KindLeak = "leak"
	// KindSeqDivergence means the *sequential* traces already differ — the
	// program's architectural behaviour depends on the secret, so nothing
	// speculative can be concluded.  Proggen leak programs are constructed
	// to never do this; a finding of this kind is an oracle/program bug.
	KindSeqDivergence = "seq_divergence"
	// KindRunError is a simulator failure (budget exhausted, deadlock).
	KindRunError = "run_error"
)

// Finding is one oracle outcome worth reporting.
type Finding struct {
	Seed    int64  `json:"seed,omitempty"`    // generated-program inputs
	Program string `json:"program,omitempty"` // named inputs (attack corpus)
	Config  string `json:"config"`
	Kind    string `json:"kind"`
	Detail  string `json:"detail,omitempty"`
	PC      uint64 `json:"pc,omitempty"`    // responsible instruction (leaks)
	Line    uint64 `json:"line,omitempty"`  // first divergent cache line
	Event   string `json:"event,omitempty"` // kind of the first divergent event
	Index   int    `json:"index,omitempty"` // its position in the trace
	// Minimized, when the shrinker ran, is a reduced reproducer whose
	// Config names the configuration the reduction was validated against.
	Minimized *difftest.Reproducer `json:"minimized,omitempty"`
}

// Input is one two-run self-composition instance: two programs with
// identical text whose initial memory differs only in the secret.  For
// generated programs ProgA == ProgB and the pokes write the valuations; the
// attack corpus builds the secret into the data segment, so ProgA and ProgB
// differ there and the pokes are nil.
type Input struct {
	Name         string
	ProgA, ProgB *asm.Program
	PokeA, PokeB func(*mem.Memory)
}

// Runner holds the per-worker simulator state a leak campaign reuses across
// inputs: one reference interpreter, the worker's machines (a
// difftest.MachineCache) and the reusable trace buffers.  The observation
// taps write through r.active, the buffer of the run in progress; the
// interpreter's tap stays installed, and each pipeline run installs the
// machine's two taps around itself.
type Runner struct {
	ref  *iss.Interp
	cpus difftest.MachineCache

	active     *[]Event // buffer the running simulator's taps append to
	bufA, bufB []Event
	seqA, seqB []Event
}

// NewRunner builds an empty runner (campaigns draw pooled runners instead).
func NewRunner() *Runner { return &Runner{} }

var runners = sweep.NewLocal(NewRunner)

func (r *Runner) onCPU(o cpu.Observation) {
	*r.active = append(*r.active, Event{
		PC: o.PC, Line: o.Line, Kind: cpuKind(o.Kind), Level: uint8(o.Level), Mode: uint8(o.Mode),
	})
}

func (r *Runner) onMem(ev mem.CacheEvent) {
	k := EvFill
	if ev.Kind == mem.CacheEvict {
		k = EvEvict
	}
	*r.active = append(*r.active, Event{Line: ev.Line, Kind: k, Level: uint8(ev.Level)})
}

func (r *Runner) onISS(o iss.Observation) {
	*r.active = append(*r.active, Event{PC: o.PC, Line: o.Addr, Kind: seqKind(o.Kind)})
}

func cpuKind(k cpu.ObsKind) EventKind {
	switch k {
	case cpu.ObsLoad:
		return EvLoad
	case cpu.ObsPrefetch:
		return EvPrefetch
	case cpu.ObsStore:
		return EvStore
	case cpu.ObsFlush:
		return EvFlush
	default:
		return EvSLPromote
	}
}

func seqKind(k iss.ObsKind) EventKind {
	switch k {
	case iss.ObsLoad:
		return EvSeqLoad
	case iss.ObsStore:
		return EvSeqStore
	default:
		return EvSeqFlush
	}
}

// seqTrace runs prog on the reference interpreter and captures its
// observation trace into *into (reused across calls).
func (r *Runner) seqTrace(prog *asm.Program, poke func(*mem.Memory), into *[]Event) error {
	if r.ref == nil {
		r.ref = iss.New(prog)
		r.ref.SetObserver(r.onISS)
	} else {
		r.ref.Reset(prog)
	}
	if poke != nil {
		poke(r.ref.Mem)
	}
	*into = (*into)[:0]
	r.active = into
	err := r.ref.Run(issBudget)
	r.active = nil
	return err
}

// pipeTrace runs prog on the worker's machine for nc and captures its
// observation trace into *into (reused across calls).
func (r *Runner) pipeTrace(nc difftest.NamedConfig, prog *asm.Program, poke func(*mem.Memory), into *[]Event) error {
	c := r.cpus.Machine(nc, prog)
	if poke != nil {
		poke(c.Mem())
	}
	*into = (*into)[:0]
	r.active = into
	c.SetObserver(r.onCPU)
	c.Hier().SetObserver(r.onMem)
	err := c.Run(cpuBudget)
	c.SetObserver(nil)
	c.Hier().SetObserver(nil)
	r.active = nil
	return err
}

// CheckSeqBaseline runs both valuations on the reference interpreter and
// verifies the sequential traces are equal (nil if so).  It is config-
// independent: campaigns run it once per input, then CheckConfig per
// configuration.
func (r *Runner) CheckSeqBaseline(in Input) *Finding {
	if err := r.seqTrace(in.ProgA, in.PokeA, &r.seqA); err != nil {
		return &Finding{Program: in.Name, Config: "iss", Kind: KindRunError, Detail: "valuation A: " + err.Error()}
	}
	if err := r.seqTrace(in.ProgB, in.PokeB, &r.seqB); err != nil {
		return &Finding{Program: in.Name, Config: "iss", Kind: KindRunError, Detail: "valuation B: " + err.Error()}
	}
	if i, ok := firstDiff(r.seqA, r.seqB); ok {
		f := &Finding{Program: in.Name, Config: "iss", Kind: KindSeqDivergence, Index: i,
			Detail: diffDetail(r.seqA, r.seqB, i)}
		f.PC, f.Line, f.Event = divergenceSite(r.seqA, r.seqB, i)
		return f
	}
	return nil
}

// CheckConfig runs both valuations on the pipeline under nc and diffs the
// observation traces.  It reports (finding, ran): finding is nil when the
// traces are equal; ran is false when a simulator error prevented the
// comparison (the finding then carries the error).
func (r *Runner) CheckConfig(in Input, nc difftest.NamedConfig) (*Finding, bool) {
	if err := r.pipeTrace(nc, in.ProgA, in.PokeA, &r.bufA); err != nil {
		return &Finding{Program: in.Name, Config: nc.Name, Kind: KindRunError, Detail: "valuation A: " + err.Error()}, false
	}
	if err := r.pipeTrace(nc, in.ProgB, in.PokeB, &r.bufB); err != nil {
		return &Finding{Program: in.Name, Config: nc.Name, Kind: KindRunError, Detail: "valuation B: " + err.Error()}, false
	}
	if i, ok := firstDiff(r.bufA, r.bufB); ok {
		f := &Finding{Program: in.Name, Config: nc.Name, Kind: KindLeak, Index: i,
			Detail: diffDetail(r.bufA, r.bufB, i)}
		f.PC, f.Line, f.Event = divergenceSite(r.bufA, r.bufB, i)
		return f, true
	}
	return nil, true
}

// firstDiff returns the index of the first differing event (handling prefix
// traces) and whether the traces differ at all.
func firstDiff(a, b []Event) (int, bool) {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, true
		}
	}
	if len(a) != len(b) {
		return n, true
	}
	return 0, false
}

// divergenceSite extracts the responsible PC, cache line and event kind for
// the divergence at index i.  Hierarchy fill/evict events carry no PC (they
// fire inside mem.Hierarchy.Access, before the pipeline emits its own load
// event), so the PC is taken from the first nearby event that has one.
func divergenceSite(a, b []Event, i int) (pc, line uint64, kind string) {
	at := func(t []Event, j int) (Event, bool) {
		if j < len(t) {
			return t[j], true
		}
		return Event{}, false
	}
	e, ok := at(a, i)
	if !ok {
		e, _ = at(b, i)
	}
	line, kind = e.Line, e.Kind.String()
	if e.PC != 0 {
		return e.PC, line, kind
	}
	const window = 8
	for j := i; j < i+window; j++ {
		if ea, ok := at(a, j); ok && ea.PC != 0 {
			return ea.PC, line, kind
		}
		if eb, ok := at(b, j); ok && eb.PC != 0 {
			return eb.PC, line, kind
		}
	}
	return 0, line, kind
}

// diffDetail renders the first divergent event pair.
func diffDetail(a, b []Event, i int) string {
	render := func(t []Event) string {
		if i < len(t) {
			return t[i].String()
		}
		return "<end of trace>"
	}
	return fmt.Sprintf("observation %d: valuation A %s, valuation B %s (|A|=%d |B|=%d)",
		i, render(a), render(b), len(a), len(b))
}

// Valuations returns the two secret byte patterns of the self-composition:
// complementary, so every bit of every byte differs between the runs.
func Valuations(n int) (a, b []byte) {
	a = make([]byte, n)
	b = make([]byte, n)
	for i := range a {
		a[i] = byte(0x5A + 7*i)
		b[i] = ^a[i]
	}
	return a, b
}

// PokeBytes returns a poke writing val at addr (functional memory only — no
// timing effect, exactly like a victim holding a different secret).
func PokeBytes(addr uint64, val []byte) func(*mem.Memory) {
	return func(m *mem.Memory) {
		for i, x := range val {
			m.SetByte(addr+uint64(i), x)
		}
	}
}

// SeedResult is the outcome of checking one generated seed.
type SeedResult struct {
	Seed     int64
	Findings []Finding
	Ran      []string // configurations that completed both runs
}

// SeedInput builds the self-composition input for one proggen seed: the
// program generated with a secret region, run under the two Valuations.
func SeedInput(seed int64, opt proggen.Options) Input {
	prog, info := proggen.GenerateWithInfo(seed, opt)
	valA, valB := Valuations(opt.SecretBytes)
	return Input{
		ProgA: prog, ProgB: prog,
		PokeA: PokeBytes(info.SecretAddr, valA),
		PokeB: PokeBytes(info.SecretAddr, valB),
	}
}

// CheckSeed runs the leak oracle for one generated seed across a config
// set.  opt must have SecretBytes > 0 (campaigns set it); the sequential
// baseline runs once, each configuration's self-composition after it.
func CheckSeed(seed int64, opt proggen.Options, cfgs []difftest.NamedConfig) SeedResult {
	r := runners.Get()
	defer runners.Put(r)
	res := SeedResult{Seed: seed}
	in := SeedInput(seed, opt)
	if f := r.CheckSeqBaseline(in); f != nil {
		f.Seed = seed
		res.Findings = append(res.Findings, *f)
		return res
	}
	for _, nc := range cfgs {
		f, ran := r.CheckConfig(in, nc)
		if ran {
			res.Ran = append(res.Ran, nc.Name)
		}
		if f != nil {
			f.Seed = seed
			res.Findings = append(res.Findings, *f)
		}
	}
	return res
}
