package prog_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/isa"
	"specrun/internal/prog"
	"specrun/internal/proggen"
	"specrun/internal/workload"
)

// samePrograms fails unless a and b are identical interchange-wise.
func samePrograms(t *testing.T, a, b *asm.Program) {
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
			t.Fatalf("segment %d differs", i)
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

// roundTrip pins both directions for one program: asm → binary → asm is
// byte-identical text, and binary → Program → binary is byte-identical.
func roundTrip(t *testing.T, p *asm.Program) {
	t.Helper()
	bin, err := prog.Encode(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := prog.Decode(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	samePrograms(t, p, dec)
	bin2, err := prog.Encode(dec)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Fatal("binary -> Program -> binary not byte-identical")
	}

	text := p.Disassemble()
	p2, err := asm.Parse("rt", text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	samePrograms(t, p, p2)
	bin3, err := prog.Encode(p2)
	if err != nil {
		t.Fatalf("encode re-parsed: %v", err)
	}
	if !bytes.Equal(bin, bin3) {
		t.Fatal("asm -> binary -> asm -> binary not byte-identical")
	}
	if text2 := p2.Disassemble(); text2 != text {
		t.Fatal("disassembly not a fixed point")
	}
}

// Golden suite: every workload kernel survives both round trips.
func TestRoundTripKernels(t *testing.T) {
	for _, k := range workload.Kernels() {
		t.Run(k.Name, func(t *testing.T) { roundTrip(t, k.Build()) })
	}
}

// Golden suite: every attack PoC survives both round trips.
func TestRoundTripAttacks(t *testing.T) {
	for _, v := range []attack.Variant{
		attack.VariantPHT, attack.VariantBTB,
		attack.VariantRSBOverwrite, attack.VariantRSBFlush,
	} {
		t.Run(v.String(), func(t *testing.T) {
			params := attack.DefaultParams()
			params.Variant = v
			p, _ := attack.MustBuild(params)
			roundTrip(t, p)
		})
	}
}

// Property suite: 2000 proggen seeds survive both round trips with byte
// identity (the acceptance bar for the interchange layer).
func TestRoundTripProggenSeeds(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	opt := proggen.DefaultOptions()
	for seed := 0; seed < n; seed++ {
		p := proggen.Generate(int64(seed), opt)
		bin, err := prog.Encode(p)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		dec, err := prog.Decode(bin)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		bin2, err := prog.Encode(dec)
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(bin, bin2) {
			t.Fatalf("seed %d: binary round trip not byte-identical", seed)
		}
		p2, err := asm.Parse("rt", p.Disassemble())
		if err != nil {
			t.Fatalf("seed %d: re-parse: %v", seed, err)
		}
		bin3, err := prog.Encode(p2)
		if err != nil {
			t.Fatalf("seed %d: encode re-parsed: %v", seed, err)
		}
		if !bytes.Equal(bin, bin3) {
			t.Fatalf("seed %d: asm round trip not byte-identical", seed)
		}
	}
}

func TestRoundTripAsmSample(t *testing.T) {
	const src = `
.org 0x2000
.data 0x200000
.equ magic 0x42
arr: .u64 1, 2, 3
msg: .ascii "hi"
start:
    movi r1, arr
    movi r2, magic
    ldx r3, [r1 + r2*8 + -16]
    fmovi f0, 0.1
    fmovi f1, nan:0x7ff800000000beef
    st [r1 + 8], r3
    beq r2, r0, start
    halt
`
	roundTrip(t, asm.MustParse("t", src))
}

func TestHashStability(t *testing.T) {
	p := workload.Kernels()[0].Build()
	a, _ := prog.Encode(p)
	b, _ := prog.Encode(workload.Kernels()[0].Build())
	if prog.Hash(a) != prog.Hash(b) {
		t.Fatal("identical programs hash differently")
	}
	if len(prog.Hash(a)) != 64 {
		t.Fatalf("hash %q is not hex sha256", prog.Hash(a))
	}
}

func TestDecodeRejects(t *testing.T) {
	good, err := prog.Encode(asm.MustParse("t", "nop\nhalt"))
	if err != nil {
		t.Fatal(err)
	}
	// clflush [r1 + 0] with its index and scale bytes, which follow the
	// magic, version, two-byte base, count, opcode and rs1 bytes, set to
	// r2 and 3: [r1 + r2*8 + 0], a line the machine never flushes.
	flush, err := prog.Encode(asm.MustParse("t", "clflush [r1 + 0]\nhalt"))
	if err != nil {
		t.Fatal(err)
	}
	i := len(prog.Magic) + 2 + 2 + 1 + 2
	flush[i], flush[i+1] = flush[i-1]+1, 3
	// A register byte is class<<6 | index.  wrongFile encodes src and moves
	// the first operand byte that names reg (its instruction's operands
	// start after the header and opcode byte) into register file class.
	wrongFile := func(src string, reg isa.Reg, class isa.RegClass) []byte {
		bin, err := prog.Encode(asm.MustParse("t", src))
		if err != nil {
			t.Fatal(err)
		}
		want := byte(reg.Class())<<6 | byte(reg.Idx())
		for j := len(prog.Magic) + 2 + 2 + 1 + 1; j < len(bin); j++ {
			if bin[j] == want {
				bin[j] = byte(class)<<6 | byte(reg.Idx())
				return bin
			}
		}
		t.Fatalf("%q: no operand byte for %s", src, reg)
		return nil
	}
	cases := []struct {
		name string
		bin  []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"bad magic", []byte("NOPE\x01\x00"), "bad magic"},
		{"bad version", append([]byte("SPRG\x63\x00"), good[6:]...), "unsupported version"},
		{"trailing bytes", append(append([]byte{}, good...), 0), "trailing"},
		{"truncated", good[:len(good)-1], "varint"},
		{"clflush index", flush, "index register"},
		{"fp address base", wrongFile("ld r1, [r2 + 0]\nhalt", isa.R(2), isa.ClassFP), "source register f2"},
		{"fp jump target", wrongFile("jr r2\nhalt", isa.R(2), isa.ClassFP), "source register f2"},
		{"int source of fp op", wrongFile("fadd f1, f2, f3\nhalt", isa.F(2), isa.ClassInt), "source register r2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := prog.Decode(tc.bin)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Non-minimal varints are rejected: the format admits exactly one byte
// string per program, which is what makes the encoding a content address.
func TestDecodeRejectsNonMinimalVarint(t *testing.T) {
	good, err := prog.Encode(asm.MustParse("t", "nop\nhalt"))
	if err != nil {
		t.Fatal(err)
	}
	// The base follows magic+version as a one-byte uvarint (0x1000 is two
	// bytes: 0x80 0x20).  Re-encode it with a redundant continuation.
	i := len(prog.Magic) + 2
	bad := append([]byte{}, good[:i]...)
	bad = append(bad, good[i]|0x80, good[i+1]|0x80, 0x00)
	bad = append(bad, good[i+2:]...)
	if _, err := prog.Decode(bad); err == nil || !strings.Contains(err.Error(), "non-minimal") {
		t.Fatalf("err = %v, want non-minimal varint rejection", err)
	}
}

// Decode enforces canonical instructions: unused operand fields must be
// zero, so two distinct byte strings cannot decode to the same program.
func TestEncodeRejectsNonCanonicalInst(t *testing.T) {
	p := &asm.Program{
		Base:    0x1000,
		Insts:   []isa.Inst{{Op: isa.NOP, Imm: 7}, {Op: isa.HALT}},
		Symbols: map[string]uint64{},
	}
	if _, err := prog.Encode(p); err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Fatalf("err = %v, want non-canonical rejection", err)
	}
}

func TestAssembleDisassemble(t *testing.T) {
	bin, err := prog.Assemble("t", "start:\n  jmp start\n  halt")
	if err != nil {
		t.Fatal(err)
	}
	text, err := prog.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	bin2, err := prog.Assemble("rt", text)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, bin2) {
		t.Fatal("Assemble(Disassemble(bin)) != bin")
	}
	if !strings.Contains(text, "jmp start") {
		t.Fatalf("disassembly lost the label:\n%s", text)
	}
}

// The interchange acceptance property end to end: a kernel that has been
// disassembled and reassembled simulates to the exact same full Stats as
// the original build (not just the same instruction list).
func TestReassembledKernelStatsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel simulation")
	}
	k := workload.Kernels()[0]
	orig := k.Build()
	back, err := asm.Parse(k.Name, orig.Disassemble())
	if err != nil {
		t.Fatal(err)
	}
	samePrograms(t, orig, back)
	cfg := core.DefaultConfig()
	want, err := core.RunProgramStats(cfg, orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.RunProgramStats(cfg, back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stats diverge after reassembly:\n%+v\n%+v", want, got)
	}
}
