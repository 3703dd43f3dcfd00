package attack

import (
	"context"
	"fmt"

	"specrun/internal/asm"
	"specrun/internal/cpu"
	"specrun/internal/isa"
	"specrun/internal/runahead"
	"specrun/internal/sweep"
)

// WindowScenario selects one of the three Fig. 10 measurements of the
// transient instruction window (§5.3).
type WindowScenario int

const (
	// Window1NormalFlushOnce: no runahead; the window is bounded by the
	// reorder buffer (N1 = ROB size - 1).
	Window1NormalFlushOnce WindowScenario = iota
	// Window2RunaheadFlushOnce: one runahead episode; pseudo-retirement
	// logically extends the ROB (N2).
	Window2RunaheadFlushOnce
	// Window3RunaheadFlushRepeat: the attacker re-flushes the stalling
	// datum after each episode; instruction-cache warm-up lets later
	// episodes run deeper (N3).
	Window3RunaheadFlushRepeat
)

func (w WindowScenario) String() string {
	switch w {
	case Window1NormalFlushOnce:
		return "normal/flush-once (N1)"
	case Window2RunaheadFlushOnce:
		return "runahead/flush-once (N2)"
	case Window3RunaheadFlushRepeat:
		return "runahead/flush-repeat (N3)"
	}
	return "unknown"
}

// MarshalText renders the scenario as a compact stable token for JSON.
func (w WindowScenario) MarshalText() ([]byte, error) {
	switch w {
	case Window1NormalFlushOnce:
		return []byte("normal-flush-once"), nil
	case Window2RunaheadFlushOnce:
		return []byte("runahead-flush-once"), nil
	case Window3RunaheadFlushRepeat:
		return []byte("runahead-flush-repeat"), nil
	}
	return nil, fmt.Errorf("attack: unknown window scenario %d", w)
}

// UnmarshalText parses the MarshalText form.
func (w *WindowScenario) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "normal-flush-once":
		*w = Window1NormalFlushOnce
	case "runahead-flush-once":
		*w = Window2RunaheadFlushOnce
	case "runahead-flush-repeat":
		*w = Window3RunaheadFlushRepeat
	default:
		return fmt.Errorf("attack: unknown window scenario %q", s)
	}
	return nil
}

// windowNops is the length of the NOP stream behind the stalling load; it
// must exceed any reachable window.
const windowNops = 4000

// windowRepeats is the number of flush+load rounds in scenario ③.
const windowRepeats = 3

// evictorNops sizes a dummy code region larger than the L1 I-cache, so
// executing it once evicts the measured stream from L1I while leaving it in
// the unified L2/L3.
const evictorNops = 8192

// BuildWindowProgram assembles the Fig. 10 measurement for a scenario.
//
// All scenarios share the structure of any real measurement binary: the
// stream has executed before (so its code is resident in the unified L2/L3)
// but other code has since displaced it from the small L1 I-cache.  The
// measured rounds are then exactly the paper's snippets:
//
//	clflush x; fence
//	ld   x              ; the stalling load
//	nop  × windowNops
//
// Scenario ① runs one flush round on a no-runahead machine (the window is
// ROB-bound).  Scenario ② runs one flush round: the single runahead episode
// streams instructions from L2, which bounds its reach.  Scenario ③ repeats
// the flush: the first episode (and the architectural re-execution after it)
// re-warms L1I, so later episodes run substantially deeper — the paper's
// "possibility for further increasing the size of SEW".
func BuildWindowProgram(s WindowScenario) *asm.Program {
	b := asm.NewBuilder(0x1000, 0x100000)
	x := b.Alloc("x", 64, 64)
	b.Alloc("wstack", 1024, 64)
	b.MoviAddr(isa.SP, b.MustSymNow("wstack")+1024)
	b.MoviAddr(isa.R(1), x)

	// Phase 0: warm pass — x cached, code lines filled into L1I/L2/L3.
	b.Call("stream")
	// Phase 1: displace the stream from L1I (but not L2/L3).
	b.Call("evictor")
	// Phase 2: the measured flush round(s).
	repeats := 1
	if s == Window3RunaheadFlushRepeat {
		repeats = windowRepeats
	}
	b.Movi(isa.R(2), int64(repeats))
	b.Label("round")
	b.Clflush(isa.R(1), 0)
	b.Fence()
	b.Call("stream")
	b.Addi(isa.R(2), isa.R(2), -1)
	b.Bne(isa.R(2), isa.R(0), "round")
	b.Halt()

	b.Label("stream")
	b.Ld(isa.R(3), isa.R(1), 0) // the (potentially stalling) load
	b.NopN(windowNops)
	b.Ret()

	b.Label("evictor")
	b.NopN(evictorNops)
	b.Ret()

	return b.MustBuild()
}

// WindowResult is one Fig. 10 measurement.
type WindowResult struct {
	Scenario WindowScenario `json:"scenario"`
	N        uint64         `json:"n"` // transient instructions executable during the stall
	Episodes uint64         `json:"episodes"`
	Reaches  []uint64       `json:"reaches,omitempty"`
}

// MeasureWindow runs one scenario and reports the measured window size:
// scenario ① from the in-flight high-water mark behind the stalled load,
// scenarios ②/③ from the deepest pseudo-retirement reach of any episode.
func MeasureWindow(base cpu.Config, s WindowScenario) (WindowResult, error) {
	cfg := base
	if s == Window1NormalFlushOnce {
		cfg.Runahead.Kind = runahead.KindNone
	} else if cfg.Runahead.Kind == runahead.KindNone {
		cfg.Runahead.Kind = runahead.KindOriginal
	}
	prog := BuildWindowProgram(s)
	c := cpu.Borrow(cfg, prog)
	defer c.Release()
	if err := c.Run(runBudget); err != nil {
		return WindowResult{}, fmt.Errorf("attack: window %v: %w", s, err)
	}
	st := c.StatsCopy()
	r := WindowResult{
		Scenario: s,
		Episodes: st.RunaheadEpisodes,
		Reaches:  st.EpisodeReaches,
	}
	if s == Window1NormalFlushOnce {
		r.N = st.MaxStallWindow
	} else {
		r.N = st.MaxEpisodeReach()
	}
	return r, nil
}

// MeasureAllWindows reproduces the full Fig. 10 triple (N1, N2, N3).  The
// three scenarios simulate concurrently on the sweep engine with `workers`
// goroutines (0 = GOMAXPROCS), honouring ctx.
func MeasureAllWindows(ctx context.Context, base cpu.Config, workers int) (n1, n2, n3 WindowResult, err error) {
	scenarios := []WindowScenario{Window1NormalFlushOnce, Window2RunaheadFlushOnce, Window3RunaheadFlushRepeat}
	results, err := sweep.First(ctx, scenarios, func(_ context.Context, s WindowScenario) (WindowResult, error) {
		return MeasureWindow(base, s)
	}, sweep.Options{Workers: workers})
	if err != nil {
		return
	}
	return results[0], results[1], results[2], nil
}
