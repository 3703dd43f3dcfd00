package isa

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegConstructors(t *testing.T) {
	tests := []struct {
		r     Reg
		class RegClass
		idx   int
		str   string
	}{
		{R(0), ClassInt, 0, "r0"},
		{R(31), ClassInt, 31, "r31"},
		{F(3), ClassFP, 3, "f3"},
		{V(15), ClassVec, 15, "v15"},
		{SP, ClassInt, 29, "r29"},
	}
	for _, tt := range tests {
		if tt.r.Class() != tt.class {
			t.Errorf("%v.Class() = %v, want %v", tt.r, tt.r.Class(), tt.class)
		}
		if tt.r.Idx() != tt.idx {
			t.Errorf("%v.Idx() = %d, want %d", tt.r, tt.r.Idx(), tt.idx)
		}
		if tt.r.String() != tt.str {
			t.Errorf("String() = %q, want %q", tt.r.String(), tt.str)
		}
		if !tt.r.Valid() {
			t.Errorf("%v not valid", tt.r)
		}
	}
}

func TestRegValidity(t *testing.T) {
	if NoReg.Valid() {
		t.Error("NoReg must not be valid")
	}
	if R(32).Valid() {
		t.Error("r32 must not be valid")
	}
	if F(16).Valid() {
		t.Error("f16 must not be valid")
	}
	if V(16).Valid() {
		t.Error("v16 must not be valid")
	}
	if !R(0).IsZero() {
		t.Error("r0 must be the zero register")
	}
	if R(1).IsZero() || F(0).IsZero() {
		t.Error("only integer r0 is the zero register")
	}
}

func TestParseRegRoundTrip(t *testing.T) {
	regs := []Reg{R(0), R(7), R(31), F(0), F(15), V(0), V(15)}
	for _, r := range regs {
		got, err := ParseReg(r.String())
		if err != nil {
			t.Fatalf("ParseReg(%q): %v", r.String(), err)
		}
		if got != r {
			t.Errorf("ParseReg(%q) = %v, want %v", r.String(), got, r)
		}
	}
	if r, err := ParseReg("sp"); err != nil || r != SP {
		t.Errorf("ParseReg(sp) = %v, %v", r, err)
	}
	for _, bad := range []string{"", "x1", "r", "r99", "f16", "v16", "r-1",
		"r1x", "r+1", "r 1", "r1.5", "f3junk", "r01", "r00", "r257", "r99999999999999999999"} {
		if _, err := ParseReg(bad); err == nil {
			t.Errorf("ParseReg(%q) succeeded, want error", bad)
		}
	}
}

func TestOpcodeMetadataComplete(t *testing.T) {
	for op := Opcode(1); int(op) < NumOpcodes; op++ {
		if op.Name() == "" || op.Name() == "bad" {
			t.Errorf("opcode %d has no name", op)
		}
		if op.Kind() == KindBad {
			t.Errorf("%s has KindBad", op)
		}
		if op.Kind() != KindNop && op.Kind() != KindFence && op.Kind() != KindHalt && op.FU() == FUNone {
			t.Errorf("%s has no functional unit", op)
		}
		if op.Latency() <= 0 {
			t.Errorf("%s has latency %d", op, op.Latency())
		}
		back, ok := OpcodeByName(op.Name())
		if !ok || back != op {
			t.Errorf("OpcodeByName(%q) = %v, %v", op.Name(), back, ok)
		}
	}
}

func TestTable1FULatencies(t *testing.T) {
	// Table 1: int add 1 cycle, int mult 2, int div 5, fp add 5, fp mult 10,
	// fp div 15.
	tests := []struct {
		op  Opcode
		lat int
	}{
		{ADD, 1}, {MUL, 2}, {DIV, 5}, {FADD, 5}, {FMUL, 10}, {FDIV, 15},
	}
	for _, tt := range tests {
		if tt.op.Latency() != tt.lat {
			t.Errorf("%s latency = %d, want %d", tt.op, tt.op.Latency(), tt.lat)
		}
	}
}

func TestMemoryClassification(t *testing.T) {
	if !LD.IsLoad() || !LDBX.IsLoad() || !FLD.IsLoad() || !VLD.IsLoad() || !RET.IsLoad() {
		t.Error("load classification wrong")
	}
	if !ST.IsStore() || !STBX.IsStore() || !CALL.IsStore() || !CALLR.IsStore() {
		t.Error("store classification wrong")
	}
	if ADD.IsMemRef() || NOP.IsMemRef() {
		t.Error("non-memory op classified as memory")
	}
	if !CLFLUSH.IsMemRef() {
		t.Error("clflush must be a memory reference")
	}
	if LD.MemSize() != 8 || LDB.MemSize() != 1 || VLD.MemSize() != 16 {
		t.Error("memory sizes wrong")
	}
}

func TestControlClassification(t *testing.T) {
	for _, op := range []Opcode{BEQ, BNE, BLT, BGE, BLTU, BGEU} {
		if !op.IsCondBranch() || !op.IsControl() {
			t.Errorf("%s must be a conditional branch", op)
		}
	}
	for _, op := range []Opcode{JMP, JR, CALL, CALLR, RET} {
		if op.IsCondBranch() {
			t.Errorf("%s must not be conditional", op)
		}
		if !op.IsControl() {
			t.Errorf("%s must be control", op)
		}
	}
	if ADD.IsControl() || LD.IsControl() {
		t.Error("ALU/loads are not control")
	}
	if !RDTSC.IsSerializing() || !FENCE.IsSerializing() {
		t.Error("rdtsc and fence serialise")
	}
	if NOP.IsSerializing() {
		t.Error("nop must not serialise")
	}
}

func TestInstSrcAndDest(t *testing.T) {
	var buf [4]Reg
	tests := []struct {
		in   Inst
		srcs []Reg
		dest Reg
	}{
		{Inst{Op: ADD, Rd: R(1), Rs1: R(2), Rs2: R(3)}, []Reg{R(2), R(3)}, R(1)},
		{Inst{Op: ADDI, Rd: R(1), Rs1: R(2), Imm: 5}, []Reg{R(2)}, R(1)},
		{Inst{Op: MOVI, Rd: R(1), Imm: 5}, nil, R(1)},
		{Inst{Op: LD, Rd: R(1), Rs1: R(2), Imm: 8}, []Reg{R(2)}, R(1)},
		{Inst{Op: LDX, Rd: R(1), Rs1: R(2), Rs2: R(3), Scale: 3}, []Reg{R(2), R(3)}, R(1)},
		{Inst{Op: ST, Rs1: R(2), Rs3: R(4)}, []Reg{R(2), R(4)}, NoReg},
		{Inst{Op: STX, Rs1: R(2), Rs2: R(3), Rs3: R(4)}, []Reg{R(2), R(3), R(4)}, NoReg},
		{Inst{Op: BEQ, Rs1: R(1), Rs2: R(2)}, []Reg{R(1), R(2)}, NoReg},
		{Inst{Op: CALL, Target: 64}, []Reg{SP}, SP},
		{Inst{Op: RET}, []Reg{SP}, SP},
		{Inst{Op: CLFLUSH, Rs1: R(5)}, []Reg{R(5)}, NoReg},
		{Inst{Op: RDTSC, Rd: R(9)}, nil, R(9)},
		{Inst{Op: NOP}, nil, NoReg},
	}
	for _, tt := range tests {
		got := tt.in.SrcRegs(buf[:0])
		if len(got) != len(tt.srcs) {
			t.Errorf("%s: srcs = %v, want %v", tt.in, got, tt.srcs)
			continue
		}
		for i := range got {
			if got[i] != tt.srcs[i] {
				t.Errorf("%s: srcs = %v, want %v", tt.in, got, tt.srcs)
			}
		}
		if d := tt.in.Dest(); d != tt.dest {
			t.Errorf("%s: dest = %v, want %v", tt.in, d, tt.dest)
		}
	}
}

func TestInstValidate(t *testing.T) {
	good := []Inst{
		{Op: ADD, Rd: R(1), Rs1: R(2), Rs2: R(3)},
		{Op: LDBX, Rd: R(1), Rs1: R(2), Rs2: R(3), Scale: 0},
		{Op: FST, Rs1: R(1), Rs3: F(2)},
		{Op: VST, Rs1: R(1), Rs3: V(2)},
		{Op: CALL, Target: 0x1000},
		{Op: NOP},
		{Op: FADD, Rd: F(1), Rs1: F(2), Rs2: F(3)},
		{Op: VXORQ, Rd: V(1), Rs1: V(2), Rs2: V(3)},
		{Op: FLD, Rd: F(1), Rs1: R(2), Rs2: R(3), Scale: 3},
		{Op: BEQ, Rs1: R(1), Rs2: R(0), Target: 0x1000},
		{Op: CALLR, Rs1: R(4)},
	}
	for _, in := range good {
		if err := in.Validate(); err != nil {
			t.Errorf("Validate(%s) = %v, want nil", in, err)
		}
	}
	bad := []Inst{
		{Op: BAD},
		{Op: ADD, Rd: F(1), Rs1: R(2), Rs2: R(3)},       // wrong dest class
		{Op: ADD, Rd: R(1), Rs1: Reg(0x1ff), Rs2: R(3)}, // invalid src
		{Op: LDX, Rd: R(1), Rs1: R(2), Rs2: R(3), Scale: 5},
		{Op: ST, Rs1: R(1), Rs3: F(2)}, // wrong store data class
		{Op: FST, Rs1: R(1), Rs3: R(2)},
		{Op: CLFLUSH, Rs1: R(1), Rs2: R(2), Scale: 3}, // flushes rs1+imm: no index
		// Source register files: addresses, branches and jr/callr read
		// integers; an ALU source is in its destination's file.
		{Op: LD, Rd: R(1), Rs1: F(2)},
		{Op: LDX, Rd: R(1), Rs1: R(2), Rs2: V(3)},
		{Op: FST, Rs1: F(1), Rs3: F(2)},
		{Op: JR, Rs1: F(2)},
		{Op: CALLR, Rs1: V(2)},
		{Op: BNE, Rs1: R(1), Rs2: F(2), Target: 0x1000},
		{Op: FADD, Rd: F(1), Rs1: R(2), Rs2: F(3)},
		{Op: ADDI, Rd: R(1), Rs1: F(2)},
		{Op: VADDQ, Rd: V(1), Rs1: V(2), Rs2: R(3)},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", in)
		}
	}
}

func TestInstString(t *testing.T) {
	tests := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: R(1), Rs1: R(2), Rs2: R(3)}, "add r1, r2, r3"},
		{Inst{Op: MOVI, Rd: R(1), Imm: 42}, "movi r1, 42"},
		{Inst{Op: LD, Rd: R(1), Rs1: R(2), Imm: 8}, "ld r1, [r2 + 8]"},
		{Inst{Op: LDX, Rd: R(1), Rs1: R(2), Rs2: R(3), Scale: 3, Imm: 0}, "ldx r1, [r2 + r3*8 + 0]"},
		{Inst{Op: ST, Rs1: R(2), Imm: 16, Rs3: R(4)}, "st [r2 + 16], r4"},
		{Inst{Op: BEQ, Rs1: R(1), Rs2: R(2), Target: 0x1040}, "beq r1, r2, 0x1040"},
		{Inst{Op: JMP, Target: 0x2000}, "jmp 0x2000"},
		{Inst{Op: CLFLUSH, Rs1: R(5), Imm: 0}, "clflush [r5 + 0]"},
		{Inst{Op: RDTSC, Rd: R(7)}, "rdtsc r7"},
		{Inst{Op: NOP}, "nop"},
		{Inst{Op: RET}, "ret"},
		// FMOVI prints the float immediate the assembler reads back.
		{Inst{Op: FMOVI, Rd: F(1), Imm: int64(math.Float64bits(1.5))}, "fmovi f1, 0x1.8p+00"},
		{Inst{Op: FMOVI, Rd: F(2), Imm: int64(math.Float64bits(-0.1))}, "fmovi f2, -0x1.999999999999ap-04"},
		{Inst{Op: FMOVI, Rd: F(3), Imm: 0x7ff800000000beef}, "fmovi f3, nan:0x7ff800000000beef"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// Property: register constructor/accessor round trip for all valid indices.
func TestQuickRegRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		i := int(n) % NumIntRegs
		j := int(n) % NumFPRegs
		return R(i).Idx() == i && R(i).Class() == ClassInt &&
			F(j).Idx() == j && F(j).Class() == ClassFP &&
			V(j).Idx() == j && V(j).Class() == ClassVec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
