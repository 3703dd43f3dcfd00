// Package isa defines the instruction set executed by the simulated
// processor: registers, opcodes, instruction encoding and metadata.
//
// The ISA is a RISC-like 64-bit instruction set designed to exercise the
// microarchitectural mechanisms SPECRUN depends on: byte and word loads with
// indexed addressing (for Spectre gadgets), CALL/RET through a memory stack
// (for the RSB variants), CLFLUSH (to trigger runahead execution) and RDTSC
// (for the covert-channel probe).  Every instruction occupies InstBytes bytes
// of instruction memory so that program counters map onto I-cache lines.
package isa

import "fmt"

// InstBytes is the size of one instruction in instruction memory.  It is
// deliberately small (x86-like code density) so that I-cache behaviour during
// long runahead episodes matches the paper's Fig. 10 measurements.
const InstBytes = 4

// RegClass identifies one of the three architectural register files from
// Table 1 of the paper (integer, floating point, xmm/vector).
type RegClass uint8

const (
	// ClassNone marks an absent register operand.
	ClassNone RegClass = iota
	// ClassInt is the 64-bit integer register file (r0..r31, r0 reads zero).
	ClassInt
	// ClassFP is the 64-bit floating-point register file (f0..f15).
	ClassFP
	// ClassVec is the 128-bit vector register file (v0..v15).
	ClassVec
)

// Register-file sizes (architectural).  Table 1 additionally configures the
// physical register file sizes (80 int / 40 fp / 40 xmm); those live in the
// CPU configuration.
const (
	NumIntRegs = 32
	NumFPRegs  = 16
	NumVecRegs = 16
)

func (c RegClass) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassFP:
		return "fp"
	case ClassVec:
		return "vec"
	default:
		return "none"
	}
}

// Reg names an architectural register.  The zero value means "no register".
type Reg uint16

// NoReg is the absent register operand.
const NoReg Reg = 0

// R returns the i'th integer register.  R(0) is hardwired to zero.
func R(i int) Reg { return Reg(uint16(ClassInt)<<8 | uint16(i)) }

// F returns the i'th floating-point register.
func F(i int) Reg { return Reg(uint16(ClassFP)<<8 | uint16(i)) }

// V returns the i'th vector register.
func V(i int) Reg { return Reg(uint16(ClassVec)<<8 | uint16(i)) }

// SP is the conventional stack pointer used by CALL and RET.
var SP = R(29)

// Class reports which register file the register belongs to.
func (r Reg) Class() RegClass { return RegClass(r >> 8) }

// Idx reports the index within the register file.
func (r Reg) Idx() int { return int(r & 0xff) }

// IsZero reports whether the register is the hardwired integer zero register.
func (r Reg) IsZero() bool { return r.Class() == ClassInt && r.Idx() == 0 }

// Valid reports whether the register names an existing architectural
// register.  NoReg is not valid.
func (r Reg) Valid() bool {
	switch r.Class() {
	case ClassInt:
		return r.Idx() < NumIntRegs
	case ClassFP:
		return r.Idx() < NumFPRegs
	case ClassVec:
		return r.Idx() < NumVecRegs
	default:
		return false
	}
}

func (r Reg) String() string {
	switch r.Class() {
	case ClassInt:
		return fmt.Sprintf("r%d", r.Idx())
	case ClassFP:
		return fmt.Sprintf("f%d", r.Idx())
	case ClassVec:
		return fmt.Sprintf("v%d", r.Idx())
	default:
		return "-"
	}
}

// ParseReg parses a register name such as "r12", "f3" or "v0": "sp", or
// r, f or v followed by a decimal index with no sign and no leading zero.
func ParseReg(s string) (Reg, error) {
	if s == "sp" {
		return SP, nil
	}
	if len(s) < 2 || (s[1] == '0' && len(s) > 2) {
		return NoReg, fmt.Errorf("isa: invalid register %q", s)
	}
	n := 0
	for _, ch := range []byte(s[1:]) {
		if ch < '0' || ch > '9' {
			return NoReg, fmt.Errorf("isa: invalid register %q", s)
		}
		if n <= 0xff { // beyond the 8-bit index: out of range, stop growing
			n = n*10 + int(ch-'0')
		}
	}
	var r Reg
	switch s[0] {
	case 'r':
		r = R(n)
	case 'f':
		r = F(n)
	case 'v':
		r = V(n)
	default:
		return NoReg, fmt.Errorf("isa: invalid register %q", s)
	}
	if n > 0xff || !r.Valid() {
		return NoReg, fmt.Errorf("isa: register %q out of range", s)
	}
	return r, nil
}
