package asm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"specrun/internal/isa"
	"specrun/internal/mem"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0x1000, 0x100000)
	arr := b.Alloc("arr", 64, 8)
	b.U64(arr, 1, 2, 3)
	b.MoviAddr(isa.R(1), arr)
	b.Ld(isa.R(2), isa.R(1), 8)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x1000 || len(p.Insts) != 3 {
		t.Fatalf("base=%#x insts=%d", p.Base, len(p.Insts))
	}
	if got := p.MustSym("arr"); got != 0x100000 {
		t.Fatalf("arr = %#x", got)
	}
	m := mem.NewMemory()
	p.LoadInto(m)
	if m.ReadU64(arr+8) != 2 {
		t.Fatal("data segment not loaded")
	}
}

func TestBuilderForwardLabel(t *testing.T) {
	b := NewBuilder(0x1000, 0x100000)
	b.Beq(isa.R(1), isa.R(2), "done") // forward reference
	b.Nop()
	b.Label("done")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Target != 0x1008 {
		t.Fatalf("forward target = %#x, want 0x1008", p.Insts[0].Target)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder(0x1000, 0x100000)
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("err = %v, want undefined label", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder(0x1000, 0x100000)
	b.Label("x")
	b.Label("x")
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate label must fail")
	}
}

func TestBuilderAllocAlignment(t *testing.T) {
	b := NewBuilder(0x1000, 0x100001)
	a := b.Alloc("a", 10, 64)
	if a%64 != 0 {
		t.Fatalf("a = %#x not 64-aligned", a)
	}
	c := b.Alloc("c", 8, 64)
	if c <= a || c%64 != 0 {
		t.Fatalf("c = %#x", c)
	}
}

func TestInstAtBounds(t *testing.T) {
	b := NewBuilder(0x1000, 0x100000)
	b.Nop()
	b.Halt()
	p := b.MustBuild()
	if _, ok := p.InstAt(0x0fff); ok {
		t.Fatal("pc below base must miss")
	}
	if _, ok := p.InstAt(0x1001); ok {
		t.Fatal("unaligned pc must miss")
	}
	if in, ok := p.InstAt(0x1004); !ok || in.Op != isa.HALT {
		t.Fatalf("InstAt(0x1004) = %v, %v", in, ok)
	}
	if _, ok := p.InstAt(p.End()); ok {
		t.Fatal("pc at end must miss")
	}
}

const sampleSrc = `
; sample program exercising the full dialect
.org 0x2000
.data 0x200000
.equ magic 0x42

array1: .byte 1, 2, 3, 4
.align 64
table:  .u64 10, 20, 30
msg:    .ascii "hi"
buf:    .zero 128

start:
    movi r1, array1
    movi r2, magic       ; symbolic immediate
    ldb  r3, [r1 + 2]
    ldx  r4, [r1 + r3*8 + 0]
    mov  r5, r4
    addi r5, r5, -1
    st   [r1 + 8], r5
    beq  r3, r0, start
loop:
    bne  r3, r0, done    # forward branch
    jmp  loop
done:
    clflush [r1]
    rdtsc r6
    call func
    halt
func:
    ret
`

func TestParseSample(t *testing.T) {
	p, err := Parse("sample", sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 0x2000 {
		t.Fatalf("base = %#x", p.Base)
	}
	if got := p.MustSym("array1"); got != 0x200000 {
		t.Fatalf("array1 = %#x", got)
	}
	if got := p.MustSym("table"); got%64 != 0 || got <= p.MustSym("array1") {
		t.Fatalf("table = %#x", got)
	}
	if got := p.MustSym("magic"); got != 0x42 {
		t.Fatalf("magic = %#x", got)
	}
	// movi r2, magic resolved the symbol.
	if p.Insts[1].Imm != 0x42 {
		t.Fatalf("symbolic imm = %d", p.Insts[1].Imm)
	}
	// ldb displacement.
	if p.Insts[2].Op != isa.LDB || p.Insts[2].Imm != 2 {
		t.Fatalf("ldb = %v", p.Insts[2])
	}
	// ldx scale 8 -> shift 3.
	if p.Insts[3].Scale != 3 {
		t.Fatalf("ldx scale = %d", p.Insts[3].Scale)
	}
	// mov pseudo became addi.
	if p.Insts[4].Op != isa.ADDI {
		t.Fatalf("mov = %v", p.Insts[4])
	}
	// Negative immediate.
	if p.Insts[5].Imm != -1 {
		t.Fatalf("addi imm = %d", p.Insts[5].Imm)
	}
	// Backward branch target.
	if p.Insts[7].Target != p.MustSym("start") {
		t.Fatalf("beq target = %#x", p.Insts[7].Target)
	}
	// Forward branch target.
	if p.Insts[8].Target != p.MustSym("done") {
		t.Fatalf("bne target = %#x want done", p.Insts[8].Target)
	}
	// Data contents.
	m := mem.NewMemory()
	p.LoadInto(m)
	if m.ByteAt(p.MustSym("array1")+1) != 2 {
		t.Fatal("array1 data wrong")
	}
	if m.ReadU64(p.MustSym("table")+16) != 30 {
		t.Fatal("table data wrong")
	}
	if string(m.ReadBytes(p.MustSym("msg"), 2)) != "hi" {
		t.Fatal("ascii data wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown mnemonic", "frob r1, r2", "unknown mnemonic"},
		{"bad reg", "add q1, r2, r3", "invalid register"},
		{"bad operand count", "add r1, r2", "wants 3 operands"},
		{"undefined symbol", "movi r1, nosuch", "undefined symbol"},
		{"bad directive", ".frob 12", "unknown directive"},
		{"duplicate label", "a:\na:\nnop", "duplicate"},
		{"bad memop", "ld r1, r2", "bad memory operand"},
		{"bad scale", "ldx r1, [r2 + r3*3 + 0]", "bad scale"},
		{"two scaled indexes", "ldx r1, [r2 + r3*2 + r4*4]", "two index registers"},
		{"index then scaled index", "ldx r1, [r2 + r3 + r4*4]", "two index registers"},
		{"clflush index", "clflush [r1 + r2*8 + 0]", "index register"},
		{"bad equ name", ".equ 0 0", "bad symbol name"},
		{"equ name with dash", ".equ a-b 1", "bad symbol name"},
		{"overlong label", strings.Repeat("x", MaxSymbolLen+1) + ": halt", "bad symbol name"},
		// Layout directives bind symbols in pass one, so their operands
		// may not name a symbol defined further down.
		{"zero forward", ".data 0x100000\n.zero n\nd: .u64 1\n.equ n 64\nhalt", `undefined symbol "n"`},
		{"equ forward", ".equ a b\n.equ b 5\nhalt", `undefined symbol "b"`},
		{"org forward", ".org base\nhalt\n.equ base 0x2000", `undefined symbol "base"`},
		{"data forward", ".data buf\nhalt\n.equ buf 0x200000", `undefined symbol "buf"`},
		{"align forward", ".align a\nhalt\n.equ a 64", `undefined symbol "a"`},
		// A source register must be in the file its slot reads.
		{"fp address base", "ld r1, [f2 + 0]\nhalt", "source register f2 is not a int register"},
		{"fp jump target", "jr f2\nhalt", "source register f2 is not a int register"},
		{"int source of fp op", "fadd f1, r2, f3\nhalt", "source register r2 is not a fp register"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("t", tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseForwardReferences: instruction operands and data words may
// name symbols defined further down, and a layout directive may name one
// defined above it; every symbol binds to where its bytes land.
func TestParseForwardReferences(t *testing.T) {
	p, err := Parse("t", `
.equ n 64
.data 0x100000
.zero n
d: .u64 later, end
.equ later 5
.equ m n
	movi r1, later
	jmp end
end:
	halt`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["d"] != 0x100040 || p.Symbols["m"] != 64 {
		t.Fatalf("symbols = %v, want d at 0x100040 and m = 64", p.Symbols)
	}
	if len(p.Segments) != 1 || p.Segments[0].Addr != p.Symbols["d"] {
		t.Fatalf("segments = %+v, want one at d", p.Segments)
	}
	if w := p.Segments[0].Data; w[0] != 5 || w[8] != byte(p.Symbols["end"]) {
		t.Fatalf("data words = % x, want later (5) and end", w)
	}
	if p.Insts[0].Imm != 5 || p.Insts[1].Target != p.Symbols["end"] {
		t.Fatalf("insts = %v, want the forward symbols resolved", p.Insts)
	}
}

// The earliest ';', '#' or "//" outside a string literal starts the
// comment, and a backslash-escaped quote does not end the literal.
func TestStripComment(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"# a ; b", ""},
		{"halt # x ; y", "halt "},
		{"halt ; x # y // z", "halt "},
		{"halt // x ; y # z", "halt "},
		{"halt / x", "halt / x"},
		{`s: .ascii "a\";b"`, `s: .ascii "a\";b"`},
		{`s: .ascii "a\\" ; c`, `s: .ascii "a\\" `},
		{`s: .ascii "#;//" # c ; d`, `s: .ascii "#;//" `},
	} {
		if got := stripComment(tc.in); got != tc.want {
			t.Errorf("stripComment(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestParseCommentCases(t *testing.T) {
	p, err := Parse("t", "# a ; b\nhalt # x ; y\ns: .ascii \"a\\\";b\" // c")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 1 || p.Insts[0].Op != isa.HALT {
		t.Fatalf("insts = %v, want [halt]", p.Insts)
	}
	if len(p.Segments) != 1 || string(p.Segments[0].Data) != `a";b` {
		t.Fatalf("segments = %+v, want the string a\";b", p.Segments)
	}
}

// The longest symbol name the binary codec carries assembles.
func TestParseLongestSymbol(t *testing.T) {
	if _, err := Parse("t", strings.Repeat("x", MaxSymbolLen)+": halt"); err != nil {
		t.Fatal(err)
	}
}

func TestParseNegativeDisplacement(t *testing.T) {
	p, err := Parse("t", "ld r1, [r2 - 16]\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Imm != -16 {
		t.Fatalf("imm = %d, want -16", p.Insts[0].Imm)
	}
}

func TestParseIndexNoScale(t *testing.T) {
	p, err := Parse("t", "ldx r1, [r2 + r3 + 4]\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	in := p.Insts[0]
	if in.Rs2 != isa.R(3) || in.Scale != 0 || in.Imm != 4 {
		t.Fatalf("parsed %+v", in)
	}
}

// samePrograms fails the test unless a and b are semantically identical:
// same base, instructions, segments (order, address, bytes) and symbols.
func samePrograms(t *testing.T, a, b *Program) {
	t.Helper()
	if a.Base != b.Base {
		t.Fatalf("base %#x != %#x", a.Base, b.Base)
	}
	if len(a.Insts) != len(b.Insts) {
		t.Fatalf("inst count %d != %d", len(a.Insts), len(b.Insts))
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("inst %d: %v != %v", i, a.Insts[i], b.Insts[i])
		}
	}
	if len(a.Segments) != len(b.Segments) {
		t.Fatalf("segment count %d != %d", len(a.Segments), len(b.Segments))
	}
	for i := range a.Segments {
		if a.Segments[i].Addr != b.Segments[i].Addr ||
			!bytes.Equal(a.Segments[i].Data, b.Segments[i].Data) {
			t.Fatalf("segment %d differs: %#x/%d vs %#x/%d bytes",
				i, a.Segments[i].Addr, len(a.Segments[i].Data),
				b.Segments[i].Addr, len(b.Segments[i].Data))
		}
	}
	if len(a.Symbols) != len(b.Symbols) {
		t.Fatalf("symbol count %d != %d", len(a.Symbols), len(b.Symbols))
	}
	for name, v := range a.Symbols {
		if got, ok := b.Symbols[name]; !ok || got != v {
			t.Fatalf("symbol %q: %#x vs %#x (present=%v)", name, v, got, ok)
		}
	}
}

// Round trip: the disassembly is a complete interchange form — it re-parses
// to an identical program, and re-disassembles to identical text.
func TestDisassembleRoundTrip(t *testing.T) {
	p := MustParse("t", sampleSrc)
	text := p.Disassemble()
	p2, err := Parse("rt", text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	samePrograms(t, p, p2)
	if text2 := p2.Disassemble(); text2 != text {
		t.Fatalf("disassembly not a fixed point:\n--- first\n%s\n--- second\n%s", text, text2)
	}
}

func TestDisassembleFloatExact(t *testing.T) {
	src := ".org 0x1000\n" +
		"fmovi f0, 1.5\n" +
		"fmovi f1, 0.1\n" +
		"fmovi f2, -0.0\n" +
		"fmovi f3, nan:0x7ff800000000beef\n" +
		"halt\n"
	p := MustParse("t", src)
	p2, err := Parse("rt", p.Disassemble())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, p.Disassemble())
	}
	samePrograms(t, p, p2)
	if got := uint64(p.Insts[3].Imm); got != 0x7ff800000000beef {
		t.Fatalf("nan payload = %#x", got)
	}
}

func TestParseHexDirective(t *testing.T) {
	p := MustParse("t", ".data 0x300000\nblob: .hex deadbeef\nhalt")
	if got := p.MustSym("blob"); got != 0x300000 {
		t.Fatalf("blob = %#x", got)
	}
	if len(p.Segments) != 1 || !bytes.Equal(p.Segments[0].Data, []byte{0xde, 0xad, 0xbe, 0xef}) {
		t.Fatalf("segments = %+v", p.Segments)
	}
	if _, err := Parse("t", ".hex abc"); err == nil || !strings.Contains(err.Error(), "even number") {
		t.Fatalf("odd .hex: err = %v", err)
	}
}

// Parse errors carry file, line, column and the offending token.
func TestParseErrorPosition(t *testing.T) {
	src := "nop\nnop\n  add r1, q7, r3\nhalt"
	_, err := Parse("t", src)
	if err == nil {
		t.Fatal("want error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T is not *ParseError: %v", err, err)
	}
	if pe.File != "t" || pe.Line != 3 || pe.Tok != "q7" {
		t.Fatalf("position = %q line %d tok %q", pe.File, pe.Line, pe.Tok)
	}
	if wantCol := strings.Index("  add r1, q7, r3", "q7") + 1; pe.Col != wantCol {
		t.Fatalf("col = %d, want %d", pe.Col, wantCol)
	}
	if s := err.Error(); !strings.Contains(s, "t:3:") || !strings.Contains(s, "q7") {
		t.Fatalf("error text %q lacks position", s)
	}
}
