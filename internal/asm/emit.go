package asm

import (
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"specrun/internal/isa"
)

// Disassemble renders the program as canonical assembly text.  The output is
// a complete interchange form, not a listing: Parse re-assembles it into an
// identical Program — same base, instruction sequence, data segments (order,
// addresses and bytes) and symbol table — which is what pins the
// asm → binary → asm round-trip.
//
// Canonical layout: `.org`, then the constant symbols as a sorted `.equ`
// block, then the text with code labels at their PCs and symbol-aware
// branch/jump targets, then one `.data`+`.hex` pair per data segment in
// original order.  The rendering is deterministic: disassembling equal
// programs yields equal text.
func (p *Program) Disassemble() string {
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)

	// Classify each symbol exactly once: a code label if it names an
	// instruction-aligned PC inside the text, a data label if it names a
	// segment start (first match in segment order), otherwise an .equ
	// constant.  Every class re-parses to the same name→value binding.
	isCodePC := func(v uint64) bool {
		return v >= p.Base && v < p.End() && (v-p.Base)%isa.InstBytes == 0
	}
	codeLabels := make(map[uint64][]string)
	used := make(map[string]bool, len(names))
	for _, name := range names {
		if v := p.Symbols[name]; isCodePC(v) {
			codeLabels[v] = append(codeLabels[v], name)
			used[name] = true
		}
	}
	dataLabel := make(map[int]string, len(p.Segments))
	for i, seg := range p.Segments {
		for _, name := range names {
			if !used[name] && p.Symbols[name] == seg.Addr {
				dataLabel[i] = name
				used[name] = true
				break
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, ".org %#x\n", p.Base)
	for _, name := range names {
		if !used[name] {
			fmt.Fprintf(&b, ".equ %s %#x\n", name, p.Symbols[name])
		}
	}
	symAt := func(addr uint64) string {
		if ns := codeLabels[addr]; len(ns) > 0 {
			return ns[0]
		}
		return ""
	}
	for i, in := range p.Insts {
		pc := p.Base + uint64(i)*isa.InstBytes
		for _, name := range codeLabels[pc] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "  %s\n", in.Format(symAt))
	}
	for i, seg := range p.Segments {
		fmt.Fprintf(&b, ".data %#x\n", seg.Addr)
		if lbl, ok := dataLabel[i]; ok {
			fmt.Fprintf(&b, "%s: .hex %s\n", lbl, hex.EncodeToString(seg.Data))
		} else {
			fmt.Fprintf(&b, ".hex %s\n", hex.EncodeToString(seg.Data))
		}
	}
	return b.String()
}
