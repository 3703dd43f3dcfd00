package leak

import (
	"context"
	"fmt"

	"specrun/internal/attack"
	"specrun/internal/difftest"
	"specrun/internal/sweep"
)

// CorpusVariants is the golden leak corpus: the handwritten SPECRUN PoCs
// (Spectre-PHT/BTB/RSB retrained for runahead, §4.4).  Every campaign
// replays them before fuzzing, so defense regressions surface even when no
// generated seed happens to synthesize a gadget.
var CorpusVariants = []attack.Variant{
	attack.VariantPHT,
	attack.VariantBTB,
	attack.VariantRSBOverwrite,
	attack.VariantRSBFlush,
}

// corpusNopPad returns the nop padding between the mispredicted control
// transfer and the secret access for the corpus build of v.
//
// The branch variants (PHT/BTB) pad by 300: the transient body lands beyond
// the 256-entry ROB (Fig. 11) and the secret access only ever executes
// during runahead.  Without the padding those PoCs also leak through
// ordinary wrong-path out-of-order speculation — real, but not the runahead
// channel this oracle (and the SL-cache defense) targets, so the secure
// configuration could never look clean.
//
// The return variants need no padding: their stalling load is the return
// itself (or feeds its target), so it reaches the ROB head — and triggers
// the runahead episode — before the wrong-path gadget issues.  The gadget
// then executes in runahead mode, where the SL cache hides it.  Padding
// instead *kills* their transmission (the episode drains nops and ends
// before the secret access), which the corpus probe pinned empirically.
func corpusNopPad(v attack.Variant) int {
	switch v {
	case attack.VariantPHT, attack.VariantBTB:
		return 300
	default:
		return 0
	}
}

// AttackInput builds the two-run self-composition for one PoC variant: the
// same attack program assembled with two complementary secret bytes.  The
// secret is part of the data segment, so the two programs differ exactly
// there and no memory poke is needed.
func AttackInput(v attack.Variant) (Input, error) {
	build := func(secret byte) (Input, error) {
		p := attack.DefaultParams()
		p.Variant = v
		p.Secret = []byte{secret}
		p.NopPad = corpusNopPad(v)
		prog, _, err := attack.Build(p)
		if err != nil {
			return Input{}, fmt.Errorf("leak: corpus %s: %w", v, err)
		}
		return Input{Name: v.String(), ProgA: prog}, nil
	}
	a, err := build(0x56)
	if err != nil {
		return Input{}, err
	}
	b, err := build(^byte(0x56))
	if err != nil {
		return Input{}, err
	}
	a.ProgB = b.ProgA
	return a, nil
}

// CorpusRow is one variant×config outcome of the golden-corpus phase,
// making defense effectiveness directly visible in the report: with
// defenses off every variant must leak; with the SL-cache defense on, none.
type CorpusRow struct {
	Program string `json:"program"`
	Config  string `json:"config"`
	Leak    bool   `json:"leak"`
	Error   string `json:"error,omitempty"`
	PC      uint64 `json:"pc,omitempty"`
	Line    uint64 `json:"line,omitempty"`
}

// runCorpus checks every PoC variant against every configuration on the
// sweep engine: one job per configuration, at most workers at once, each
// inside a slot of a sweep.Gate on ctx.  A cancelled corpus returns no rows
// and the context's error.  The four inputs are built, and their sequential
// baselines checked on the reference interpreter, once before the sweep.
//
// Each job checks the four variants on a runner of its own, dropped when the
// job ends, so no corpus machine outlives the call and the pooled seed-phase
// runners stay unpolluted by the attack-specific BTB overrides ConfigFor
// applies.  The variants ConfigFor leaves alone share the job's machine, and
// the tuned one (BTB) runs after them, so a job builds at most two machines.
// The rows come back variant-major, whatever the worker count.
func runCorpus(ctx context.Context, cfgs []difftest.NamedConfig, workers int) ([]CorpusRow, error) {
	ins := make([]Input, len(CorpusVariants))
	base := NewRunner()
	for i, v := range CorpusVariants {
		in, err := AttackInput(v)
		if err != nil {
			return nil, err
		}
		if f := base.CheckSeqBaseline(in); f != nil {
			return nil, fmt.Errorf("leak: corpus %s: %s: %s", v, f.Kind, f.Detail)
		}
		ins[i] = in
	}
	perConfig, err := sweep.Run(ctx, cfgs, func(_ context.Context, nc difftest.NamedConfig) ([]CorpusRow, error) {
		r := NewRunner()
		rows := make([]CorpusRow, len(ins))
		for _, tunedPass := range []bool{false, true} {
			for i, v := range CorpusVariants {
				// The PoCs need the variant's microarchitectural
				// preconditions (BTB geometry for the aliasing variant) on
				// top of the matrix point, exactly like the attack driver
				// applies them.
				tuned := difftest.NamedConfig{Name: nc.Name, Config: attack.ConfigFor(v, nc.Config)}
				if (tuned.Config != nc.Config) != tunedPass {
					continue
				}
				row := CorpusRow{Program: ins[i].Name, Config: nc.Name}
				f, ran := r.CheckConfig(ins[i], tuned)
				switch {
				case !ran:
					row.Error = f.Detail
				case f != nil:
					row.Leak = true
					row.PC, row.Line = f.PC, f.Line
				}
				rows[i] = row
			}
		}
		return rows, nil
	}, sweep.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	rows := make([]CorpusRow, 0, len(ins)*len(cfgs))
	for i := range ins {
		for _, byVariant := range perConfig {
			rows = append(rows, byVariant[i])
		}
	}
	return rows, nil
}
