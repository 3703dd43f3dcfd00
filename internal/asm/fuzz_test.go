package asm_test

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/isa"
	"specrun/internal/prog"
	"specrun/internal/workload"
)

// FuzzParse: Parse never panics, and any text it accepts re-parses from its
// own Disassemble to an identical Program with identical .sprog bytes.  A
// register token is accepted only in its canonical spelling (or as sp).
// Seeds: the workload kernels, the attack PoCs, TestParseSample's listing
// and the comment-precedence cases.
func FuzzParse(f *testing.F) {
	for _, k := range workload.Kernels() {
		f.Add(k.Build().Disassemble())
	}
	for _, v := range []attack.Variant{attack.VariantPHT, attack.VariantBTB, attack.VariantRSBOverwrite, attack.VariantRSBFlush} {
		p := attack.DefaultParams()
		p.Variant = v
		poc, _, err := attack.Build(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(poc.Disassemble())
	}
	f.Add(asm.SampleSrc)
	for _, s := range []string{
		"# a ; b\nhalt",
		"halt # x ; y",
		"halt // x ; y # z",
		"s: .ascii \"a\\\";b\"\nhalt",
		"fmovi f1, 0x1.8p+00\nfmovi f2, nan:0x7ff800000000beef\nhalt",
		"clflush [r1 + 64]\nldx r1, [r2 + r3*8 + -4]\nhalt",
		"r1",
		"sp",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if r, err := isa.ParseReg(src); err == nil && src != "sp" && r.String() != src {
			t.Fatalf("ParseReg accepted %q as %s", src, r)
		}
		p, err := asm.Parse("fuzz", src)
		if err != nil {
			return
		}
		bin, err := prog.Encode(p)
		if err != nil {
			t.Fatalf("accepted text does not encode: %v\n%s", err, src)
		}
		text := p.Disassemble()
		p2, err := asm.Parse("rt", text)
		if err != nil {
			t.Fatalf("disassembly does not re-parse: %v\n--- source\n%s\n--- disassembly\n%s", err, src, text)
		}
		if !samePrograms(p, p2) {
			t.Fatalf("re-parsed program differs\n--- source\n%s\n--- disassembly\n%s", src, text)
		}
		if bin2, err := prog.Encode(p2); err != nil || !bytes.Equal(bin, bin2) {
			t.Fatalf("re-parsed program encodes differently (%v)\n--- source\n%s", err, src)
		}
	})
}

func samePrograms(a, b *asm.Program) bool {
	return a.Base == b.Base && slices.Equal(a.Insts, b.Insts) &&
		slices.EqualFunc(a.Segments, b.Segments, func(x, y asm.Segment) bool {
			return x.Addr == y.Addr && bytes.Equal(x.Data, y.Data)
		}) &&
		maps.Equal(a.Symbols, b.Symbols)
}
