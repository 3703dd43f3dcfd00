package prog

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/isa"
)

// The per-kind switches below are the operand definitions that isa's
// operand table (isa.Opcode.Operands) replaced — the codec's wire fields,
// Inst.SrcRegs and Inst.String — kept verbatim as the oracle for the
// derived versions.

func oracleWireFields(op isa.Opcode) fields {
	switch op.Kind() {
	case isa.KindALU:
		switch op {
		case isa.MOVI, isa.FMOVI:
			return fields{rd: true, imm: true}
		case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
			return fields{rd: true, rs1: true, imm: true}
		default:
			return fields{rd: true, rs1: true, rs2: true}
		}
	case isa.KindLoad:
		return fields{rd: true, mem: true}
	case isa.KindStore:
		return fields{mem: true, rs3: true}
	case isa.KindBranch:
		return fields{rs1: true, rs2: true, target: true}
	case isa.KindJump, isa.KindCall:
		return fields{target: true}
	case isa.KindJumpR, isa.KindCallR:
		return fields{rs1: true}
	case isa.KindFlush:
		return fields{mem: true}
	case isa.KindRDTSC:
		return fields{rd: true}
	default:
		return fields{}
	}
}

func oracleSrcRegs(in isa.Inst, dst []isa.Reg) []isa.Reg {
	switch in.Op.Kind() {
	case isa.KindALU:
		switch in.Op {
		case isa.MOVI, isa.FMOVI:
			// no register sources
		case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
			dst = append(dst, in.Rs1)
		default:
			dst = append(dst, in.Rs1, in.Rs2)
		}
	case isa.KindLoad:
		dst = append(dst, in.Rs1)
		if in.Rs2 != isa.NoReg {
			dst = append(dst, in.Rs2)
		}
	case isa.KindStore:
		dst = append(dst, in.Rs1)
		if in.Rs2 != isa.NoReg {
			dst = append(dst, in.Rs2)
		}
		dst = append(dst, in.Rs3)
	case isa.KindBranch:
		dst = append(dst, in.Rs1, in.Rs2)
	case isa.KindJumpR:
		dst = append(dst, in.Rs1)
	case isa.KindCallR:
		dst = append(dst, in.Rs1, isa.SP)
	case isa.KindFlush:
		dst = append(dst, in.Rs1)
	case isa.KindCall, isa.KindRet:
		dst = append(dst, isa.SP)
	}
	return dst
}

func oracleString(in isa.Inst) string {
	var b strings.Builder
	b.WriteString(in.Op.Name())
	arg := func(s string) {
		if strings.HasSuffix(b.String(), in.Op.Name()) {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(s)
	}
	addr := func() string {
		if in.UsesIndex() {
			return fmt.Sprintf("[%s + %s*%d + %d]", in.Rs1, in.Rs2, 1<<in.Scale, in.Imm)
		}
		return fmt.Sprintf("[%s + %d]", in.Rs1, in.Imm)
	}
	switch in.Op.Kind() {
	case isa.KindALU:
		switch in.Op {
		case isa.MOVI, isa.FMOVI:
			arg(in.Rd.String())
			arg(fmt.Sprintf("%d", in.Imm))
		case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI:
			arg(in.Rd.String())
			arg(in.Rs1.String())
			arg(fmt.Sprintf("%d", in.Imm))
		default:
			arg(in.Rd.String())
			arg(in.Rs1.String())
			arg(in.Rs2.String())
		}
	case isa.KindLoad:
		arg(in.Rd.String())
		arg(addr())
	case isa.KindStore:
		arg(addr())
		arg(in.Rs3.String())
	case isa.KindBranch:
		arg(in.Rs1.String())
		arg(in.Rs2.String())
		arg(fmt.Sprintf("0x%x", in.Target))
	case isa.KindJump, isa.KindCall:
		arg(fmt.Sprintf("0x%x", in.Target))
	case isa.KindJumpR, isa.KindCallR:
		arg(in.Rs1.String())
	case isa.KindFlush:
		arg(addr())
	case isa.KindRDTSC:
		arg(in.Rd.String())
	}
	return b.String()
}

// regOf returns register i of the given class (integer for ClassNone).
func regOf(c isa.RegClass, i int) isa.Reg {
	switch c {
	case isa.ClassFP:
		return isa.F(i)
	case isa.ClassVec:
		return isa.V(i)
	}
	return isa.R(i)
}

// validSamples builds canonical instructions of op from the oracle's wire
// fields: every register slot in the opcode's own register class, edge
// immediates and targets, and every address form the opcode admits.
func validSamples(op isa.Opcode) []isa.Inst {
	f := oracleWireFields(op)
	class := op.DestClass()
	data := class // store data register class
	switch op {
	case isa.ST, isa.STB, isa.STX, isa.STBX:
		data = isa.ClassInt
	case isa.FST:
		data = isa.ClassFP
	case isa.VST:
		data = isa.ClassVec
	}
	imms := []int64{0, -1, 42, math.MinInt64, math.MaxInt64}
	if op == isa.FMOVI {
		imms = nil
		for _, v := range []float64{1.5, 0.1, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324} {
			imms = append(imms, int64(math.Float64bits(v)))
		}
		imms = append(imms, int64(0x7ff800000000beef), int64(math.Float64bits(math.NaN())))
	}
	type addr struct {
		idx   isa.Reg
		scale uint8
	}
	addrs := []addr{{isa.NoReg, 0}}
	if op.Kind() != isa.KindFlush {
		for s := uint8(0); s <= 4; s++ {
			addrs = append(addrs, addr{isa.R(4), s})
		}
		addrs = append(addrs, addr{isa.R(0), 3})
	}
	var out []isa.Inst
	for i, imm := range imms {
		for _, a := range addrs {
			in := isa.Inst{Op: op}
			if f.rd {
				in.Rd = regOf(class, 1+i)
			}
			if f.rs1 {
				in.Rs1 = regOf(class, 2+i)
			}
			if f.rs2 {
				in.Rs2 = regOf(class, i)
			}
			if f.rs3 {
				in.Rs3 = regOf(data, 3+i)
			}
			if f.imm {
				in.Imm = imm
			}
			if f.target {
				in.Target = []uint64{0, 0x1040, math.MaxUint64, 4, 0x2000}[i]
			}
			if f.mem {
				in.Rs1, in.Rs2, in.Scale, in.Imm = isa.R(i), a.idx, a.scale, imm
			}
			out = append(out, in)
			if !f.mem {
				break // the address forms only vary memory operands
			}
		}
	}
	return out
}

// Every opcode's operand table row reproduces the old per-kind switches:
// the same wire fields, the same source registers for every valid
// instruction, and a Format the assembler reads back to the same Inst.
func TestOperandTableMatchesSwitchOracle(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := isa.Opcode(i)
		if got, want := wire[op], oracleWireFields(op); got != want {
			t.Errorf("%s (%d): wire fields = %+v, want %+v", op, i, got, want)
		}
	}
	for op := isa.Opcode(1); int(op) < isa.NumOpcodes; op++ {
		samples := validSamples(op)
		if len(samples) == 0 {
			t.Fatalf("%s: no samples", op)
		}
		for _, in := range samples {
			if err := canonInst(in); err != nil {
				t.Fatalf("%s: sample %+v is not canonical: %v", op, in, err)
			}
			var a, b [4]isa.Reg
			if got, want := in.SrcRegs(a[:0]), oracleSrcRegs(in, b[:0]); !slices.Equal(got, want) {
				t.Errorf("%s: SrcRegs = %v, want %v", in, got, want)
			}
			text := in.Format(nil)
			p, err := asm.Parse("t", text)
			if err != nil {
				t.Errorf("%+v: Parse(%q): %v", in, text, err)
				continue
			}
			if len(p.Insts) != 1 || p.Insts[0] != in {
				t.Errorf("Parse(%q) = %+v, want %+v", text, p.Insts, in)
			}
		}
	}
}

// Inst.String keeps the old switch's text for every opcode and operand
// value, valid or not, except FMOVI, which now prints the float immediate
// the assembler reads back (pinned in isa's TestInstString).
func TestInstStringMatchesSwitchOracle(t *testing.T) {
	regs := []isa.Reg{isa.NoReg, isa.R(0), isa.R(7), isa.F(3), isa.V(2), isa.Reg(0x1ff)}
	for op := 0; op < 256; op++ {
		if isa.Opcode(op) == isa.FMOVI {
			continue
		}
		for i, r := range regs {
			in := isa.Inst{Op: isa.Opcode(op), Rd: r, Rs1: regs[(i+1)%len(regs)], Rs2: regs[(i+2)%len(regs)],
				Rs3: regs[(i+3)%len(regs)], Imm: int64(i*1000 - 2500), Target: uint64(i * 0x1234), Scale: uint8(i)}
			if got, want := in.String(), oracleString(in); got != want {
				t.Errorf("%d: String() = %q, want %q", op, got, want)
			}
		}
	}
}
