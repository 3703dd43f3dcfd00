// Package prog is the program interchange layer: a compact, versioned binary
// codec for asm.Program.  The encoding is canonical — for any program there
// is exactly one valid byte string, and Decode rejects everything else
// (non-minimal varints, unsorted symbol tables, non-canonical operand
// fields, trailing bytes) — so the encoded bytes are a content address: two
// programs are identical iff their encodings are byte-equal.  Fuzz/leak
// reproducers, the CLI (`specrun asm|disasm|run`) and the server's
// POST /v1/run/program all exchange programs in this form (.sprog files).
//
// Layout (all integers little-endian; uvarint/varint are Go's
// encoding/binary varints, minimal-length enforced):
//
//	magic "SPRG" | u16 version (=1)
//	uvarint text base
//	uvarint instruction count, then per instruction:
//	    opcode byte, then the operand fields its operand slots carry
//	    (isa.Opcode.Operands), in order rd, rs1, rs2, scale, rs3 (one byte
//	    each; reg = class<<6 | idx), imm (varint, zigzag), target (uvarint)
//	uvarint segment count, then per segment:
//	    uvarint address, uvarint length, raw bytes
//	uvarint symbol count, then per symbol (strictly increasing by name):
//	    uvarint name length, name bytes, uvarint value
package prog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"specrun/internal/asm"
	"specrun/internal/isa"
)

// Magic starts every encoded program.
const Magic = "SPRG"

// Version is the current format version.
const Version = 1

// Ext is the conventional file extension for encoded programs.
const Ext = ".sprog"

// Decode/Encode limits.  They bound hostile inputs (the server accepts
// programs over HTTP) and are far above anything the generators produce.
const (
	MaxInsts     = 1 << 20          // instructions per program
	MaxSegments  = 1 << 16          // data segments
	MaxDataBytes = 1 << 24          // total initialised data bytes
	MaxSymbols   = 1 << 16          // symbol-table entries
	MaxNameLen   = asm.MaxSymbolLen // bytes per symbol name
)

// Hash returns the content address of an encoded program: the hex sha256 of
// its canonical bytes.
func Hash(bin []byte) string {
	sum := sha256.Sum256(bin)
	return hex.EncodeToString(sum[:])
}

// fields describes which operand fields an opcode carries on the wire, read
// off its operand slots (isa.Opcode.Operands).  mem stands for the full
// addressing tuple rs1, rs2, scale, imm; a float immediate travels as imm.
type fields struct {
	rd, rs1, rs2, rs3, imm, target, mem bool
}

// wire holds every opcode's fields, so the codec's per-instruction lookup
// is one load (undefined opcodes carry none).
var wire = func() (t [256]fields) {
	for op := range t {
		f := &t[op]
		for _, o := range isa.Opcode(op).Operands() {
			switch o {
			case isa.OperandRd:
				f.rd = true
			case isa.OperandRs1:
				f.rs1 = true
			case isa.OperandRs2:
				f.rs2 = true
			case isa.OperandRs3:
				f.rs3 = true
			case isa.OperandImm, isa.OperandFloat:
				f.imm = true
			case isa.OperandMem:
				f.mem = true
			case isa.OperandTarget:
				f.target = true
			}
		}
	}
	return t
}()

// canonInst checks that an instruction is in canonical form: it validates,
// every field its opcode does not carry is zero, and an absent index
// register implies scale zero.  Canonical instructions are exactly those the
// assembler, builder and generators produce, and the only ones Decode
// accepts — so re-encoding a decoded program is byte-identical.
func canonInst(in isa.Inst) error {
	if err := in.Validate(); err != nil {
		return err
	}
	f := wire[in.Op]
	want := isa.Inst{Op: in.Op}
	if f.rd {
		want.Rd = in.Rd
	}
	if f.rs1 || f.mem {
		want.Rs1 = in.Rs1
	}
	if f.rs2 || f.mem {
		want.Rs2 = in.Rs2
	}
	if f.rs3 {
		want.Rs3 = in.Rs3
	}
	if f.imm || f.mem {
		want.Imm = in.Imm
	}
	if f.target {
		want.Target = in.Target
	}
	if f.mem {
		want.Scale = in.Scale
	}
	if want != in {
		return fmt.Errorf("prog: %s: non-canonical operand fields", in.Op)
	}
	if f.mem && in.Rs2 == isa.NoReg && in.Scale != 0 {
		return fmt.Errorf("prog: %s: scale %d without index register", in.Op, in.Scale)
	}
	return nil
}

// regByte packs a register into one byte: class<<6 | idx.  Indices are below
// 32 in every file, so the packing is injective; NoReg packs to zero.
func regByte(r isa.Reg) byte {
	return byte(r.Class())<<6 | byte(r.Idx()&0x3f)
}

func byteReg(b byte) isa.Reg {
	return isa.Reg(uint16(b>>6)<<8 | uint16(b&0x3f))
}

// Encode renders a program in canonical binary form.  It rejects programs
// that exceed the format limits, carry non-canonical instructions, or have
// symbol names the assembler could not re-parse.
func Encode(p *asm.Program) ([]byte, error) {
	if len(p.Insts) > MaxInsts {
		return nil, fmt.Errorf("prog: %d instructions exceeds limit %d", len(p.Insts), MaxInsts)
	}
	if len(p.Segments) > MaxSegments {
		return nil, fmt.Errorf("prog: %d segments exceeds limit %d", len(p.Segments), MaxSegments)
	}
	if len(p.Symbols) > MaxSymbols {
		return nil, fmt.Errorf("prog: %d symbols exceeds limit %d", len(p.Symbols), MaxSymbols)
	}
	b := make([]byte, 0, 64+8*len(p.Insts))
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.AppendUvarint(b, p.Base)

	b = binary.AppendUvarint(b, uint64(len(p.Insts)))
	for i, in := range p.Insts {
		if err := canonInst(in); err != nil {
			return nil, fmt.Errorf("prog: instruction %d: %w", i, err)
		}
		b = append(b, byte(in.Op))
		f := wire[in.Op]
		if f.rd {
			b = append(b, regByte(in.Rd))
		}
		if f.rs1 || f.mem {
			b = append(b, regByte(in.Rs1))
		}
		if f.rs2 || f.mem {
			b = append(b, regByte(in.Rs2))
		}
		if f.mem {
			b = append(b, in.Scale)
		}
		if f.rs3 {
			b = append(b, regByte(in.Rs3))
		}
		if f.imm || f.mem {
			b = binary.AppendVarint(b, in.Imm)
		}
		if f.target {
			b = binary.AppendUvarint(b, in.Target)
		}
	}

	total := 0
	b = binary.AppendUvarint(b, uint64(len(p.Segments)))
	for _, s := range p.Segments {
		total += len(s.Data)
		if total > MaxDataBytes {
			return nil, fmt.Errorf("prog: data exceeds limit %d bytes", MaxDataBytes)
		}
		b = binary.AppendUvarint(b, s.Addr)
		b = binary.AppendUvarint(b, uint64(len(s.Data)))
		b = append(b, s.Data...)
	}

	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		if len(name) > MaxNameLen || !asm.ValidSymbol(name) {
			return nil, fmt.Errorf("prog: invalid symbol name %q", name)
		}
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		b = binary.AppendUvarint(b, p.Symbols[name])
	}
	return b, nil
}

// decoder walks an encoded program, failing sticky on the first error.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("prog: offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("unexpected end of input")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// uvarint reads a minimal-length unsigned varint.  Rejecting non-minimal
// encodings keeps the format canonical: every value has one byte string.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	if n > 1 && d.b[d.off+n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint() // zigzag rides on the uvarint wire form
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("unexpected end of input (%d bytes wanted)", n)
		return nil
	}
	v := d.b[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return v
}

// count reads a length prefix and checks it against both the format limit
// and the bytes actually remaining (at least min bytes per element), so a
// hostile prefix cannot force a huge allocation.
func (d *decoder) count(limit int, min int, what string) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(limit) {
		d.fail("%d %s exceeds limit %d", n, what, limit)
		return 0
	}
	if n*uint64(min) > uint64(len(d.b)-d.off) {
		d.fail("%d %s overruns input", n, what)
		return 0
	}
	return int(n)
}

// Decode parses canonical binary form back into a program.  It accepts
// exactly the Encode image: any deviation — wrong magic or version, a
// non-minimal varint, a non-canonical instruction, an unsorted or invalid
// symbol table, trailing bytes — is an error, so Decode∘Encode is identity
// and Encode∘Decode is byte-identity.
func Decode(bin []byte) (*asm.Program, error) {
	d := &decoder{b: bin}
	if len(bin) < len(Magic)+2 || string(bin[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("prog: bad magic (not a %s program)", Magic)
	}
	d.off = len(Magic)
	if v := binary.LittleEndian.Uint16(bin[d.off:]); v != Version {
		return nil, fmt.Errorf("prog: unsupported version %d (have %d)", v, Version)
	}
	d.off += 2

	p := &asm.Program{Base: d.uvarint(), Symbols: make(map[string]uint64)}

	nInsts := d.count(MaxInsts, 1, "instructions")
	if nInsts > 0 && d.err == nil {
		p.Insts = make([]isa.Inst, 0, nInsts)
	}
	for i := 0; i < nInsts && d.err == nil; i++ {
		in := isa.Inst{Op: isa.Opcode(d.u8())}
		f := wire[in.Op]
		if f.rd {
			in.Rd = byteReg(d.u8())
		}
		if f.rs1 || f.mem {
			in.Rs1 = byteReg(d.u8())
		}
		if f.rs2 || f.mem {
			in.Rs2 = byteReg(d.u8())
		}
		if f.mem {
			in.Scale = d.u8()
		}
		if f.rs3 {
			in.Rs3 = byteReg(d.u8())
		}
		if f.imm || f.mem {
			in.Imm = d.varint()
		}
		if f.target {
			in.Target = d.uvarint()
		}
		if d.err == nil {
			if err := canonInst(in); err != nil {
				return nil, fmt.Errorf("prog: instruction %d: %w", i, err)
			}
			p.Insts = append(p.Insts, in)
		}
	}

	nSegs := d.count(MaxSegments, 2, "segments")
	total := 0
	if nSegs > 0 && d.err == nil {
		p.Segments = make([]asm.Segment, 0, nSegs)
	}
	for i := 0; i < nSegs && d.err == nil; i++ {
		addr := d.uvarint()
		n := d.uvarint()
		if n > MaxDataBytes || total+int(n) > MaxDataBytes {
			d.fail("data exceeds limit %d bytes", MaxDataBytes)
			break
		}
		total += int(n)
		p.Segments = append(p.Segments, asm.Segment{Addr: addr, Data: d.bytes(n)})
	}

	nSyms := d.count(MaxSymbols, 3, "symbols")
	prev := ""
	for i := 0; i < nSyms && d.err == nil; i++ {
		n := d.uvarint()
		if n > MaxNameLen {
			d.fail("symbol name length %d exceeds limit %d", n, MaxNameLen)
			break
		}
		name := string(d.bytes(n))
		if d.err != nil {
			break
		}
		if !asm.ValidSymbol(name) {
			d.fail("invalid symbol name %q", name)
			break
		}
		if i > 0 && name <= prev {
			d.fail("symbol table not strictly sorted at %q", name)
			break
		}
		prev = name
		p.Symbols[name] = d.uvarint()
	}

	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

// Assemble parses assembly text and encodes it: the text → binary half of
// the interchange layer.
func Assemble(name, src string) ([]byte, error) {
	p, err := asm.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return Encode(p)
}

// Disassemble decodes a binary program and renders canonical assembly text:
// the binary → text half.  Assemble(Disassemble(bin)) == bin.
func Disassemble(bin []byte) (string, error) {
	p, err := Decode(bin)
	if err != nil {
		return "", err
	}
	return p.Disassemble(), nil
}
