package asm

import (
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"specrun/internal/isa"
)

// ParseError is an assembly error with source-position context: the file and
// 1-based line, and — when the parser can attribute the failure to a single
// token — the 1-based column where that token starts and the token itself.
type ParseError struct {
	File string
	Line int
	Col  int    // 1-based column of the offending token; 0 when unknown
	Tok  string // offending token; empty when the whole line is at fault
	Msg  string
}

func (e *ParseError) Error() string {
	pos := fmt.Sprintf("%s:%d", e.File, e.Line)
	if e.Col > 0 {
		pos += ":" + strconv.Itoa(e.Col)
	}
	if e.Tok != "" {
		return fmt.Sprintf("%s: %s (near %q)", pos, e.Msg, e.Tok)
	}
	return pos + ": " + e.Msg
}

// Parse assembles source text into a Program.  The dialect:
//
//	; comment            (also "#" and "//"; the earliest outside a string wins)
//	.org 0x1000          set the text base (before any instruction)
//	.data 0x100000       set the data cursor
//	.align 64            align the data cursor
//	.equ name 0x42       define a constant symbol
//	label:               define a code label (or data label before a directive)
//	buf: .zero 256       reserve zeroed data
//	tab: .u64 1, 2, 3    initialised 64-bit words
//	msg: .byte 1, 2      initialised bytes
//	s:   .ascii "text"   initialised string
//	h:   .hex deadbeef   initialised raw bytes (one segment per line)
//
//	add r1, r2, r3       ALU register forms
//	addi r1, r2, -5      ALU immediate forms
//	movi r1, array1      symbols allowed wherever immediates are
//	fmovi f0, 1.5        float immediates: decimal, 0x1.8p+00, nan:0x<bits>
//	ld r1, [r2 + 8]      loads; also [r2], [r2 + r3*8 + off]
//	st [r2 + 8], r3      stores
//	beq r1, r2, label    branches; targets are labels or absolute addresses
//	clflush [r2 + 64]    flush the line at base + offset (no index register)
//	rdtsc r1             also jmp l; jr r1; call f; callr r1; ret; nop; fence; halt
//
// Each opcode takes the operands its isa.Opcode.Operands slots name, in
// that order; the mov rd, rs pseudo-instruction assembles as addi rd, rs, 0.
//
// Assembly is two-pass: pass one sizes text/data and collects symbols, pass
// two emits instructions with all symbols resolved.  Errors carry positions:
// errors.As against *ParseError yields file, line, column and token.
func Parse(name, src string) (*Program, error) {
	p := &parser{
		file: name,
		syms: make(map[string]uint64),
		base: 0x1000,
		data: 0x100000,
	}
	if err := p.run(src, 1); err != nil {
		return nil, err
	}
	p.reset()
	if err := p.run(src, 2); err != nil {
		return nil, err
	}
	prog := &Program{Base: p.base, Insts: p.insts, Segments: p.segs, Symbols: p.syms}
	for i, in := range prog.Insts {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("%s: instruction %d: %v", name, i, err)
		}
	}
	return prog, nil
}

// MustParse is Parse that panics on error, for source constants.
func MustParse(name, src string) *Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

// MaxSymbolLen bounds a symbol name, in bytes.
const MaxSymbolLen = 128

// ValidSymbol reports whether name is a legal assembly identifier, usable as
// a label or .equ name: at most MaxSymbolLen letters, digits, '_' and '.',
// not starting with a digit.  The binary codec enforces the same rule, so
// every assembled program encodes and every decoded symbol table survives
// disassembly.
func ValidSymbol(name string) bool {
	return len(name) <= MaxSymbolLen && isIdent(name)
}

type parser struct {
	file    string
	base    uint64
	baseSet bool
	pc      uint64
	data    uint64
	syms    map[string]uint64
	insts   []isa.Inst
	segs    []Segment
	pass    int
	lineNo  int    // 1-based line currently being parsed
	raw     string // raw text of that line, for column recovery
}

func (p *parser) reset() {
	p.pc = p.base
	p.data = 0x100000
	p.baseSet = false
	p.insts = nil
	p.segs = nil
}

// tokErr builds a ParseError at the current line, locating tok in the raw
// source text to recover its column.
func (p *parser) tokErr(tok, format string, args ...any) error {
	tok = strings.TrimSpace(tok)
	col := 0
	if tok != "" {
		if i := strings.Index(p.raw, tok); i >= 0 {
			col = i + 1
		}
	}
	return &ParseError{File: p.file, Line: p.lineNo, Col: col, Tok: tok, Msg: fmt.Sprintf(format, args...)}
}

// lineErr builds a ParseError covering the whole current line.
func (p *parser) lineErr(format string, args ...any) error {
	return &ParseError{File: p.file, Line: p.lineNo, Msg: fmt.Sprintf(format, args...)}
}

// parseReg wraps isa.ParseReg with token position context.
func (p *parser) parseReg(s string) (isa.Reg, error) {
	r, err := isa.ParseReg(strings.TrimSpace(s))
	if err != nil {
		return r, p.tokErr(s, "%v", err)
	}
	return r, nil
}

func (p *parser) run(src string, pass int) error {
	p.pass = pass
	p.pc = p.base
	for lineNo, raw := range strings.Split(src, "\n") {
		p.lineNo, p.raw = lineNo+1, raw
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			if _, ok := err.(*ParseError); ok {
				return err
			}
			return &ParseError{File: p.file, Line: p.lineNo, Msg: err.Error()}
		}
	}
	return nil
}

// stripComment cuts a line at its comment: the earliest ';', '#' or "//"
// outside a string literal.  Inside a literal a backslash escapes the next
// byte, so an escaped quote does not end the string.
func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr && c == '\\':
			i++
		case c == '"':
			inStr = !inStr
		case !inStr && (c == ';' || c == '#' || c == '/' && strings.HasPrefix(s[i+1:], "/")):
			return s[:i]
		}
	}
	return s
}

func (p *parser) define(name string, v uint64) error {
	if p.pass == 2 {
		return nil // already collected in pass one
	}
	if !ValidSymbol(name) {
		return p.tokErr(name, "bad symbol name %q", name)
	}
	if _, dup := p.syms[name]; dup {
		return p.tokErr(name, "duplicate symbol %q", name)
	}
	p.syms[name] = v
	return nil
}

// dataDirectives are the directives that emit or reserve data: a label
// sharing their line names the data cursor, not the current PC.
var dataDirectives = []string{".zero", ".u64", ".byte", ".ascii", ".hex"}

func (p *parser) line(line string) error {
	// Peel off "label:" prefixes.
	for {
		idx := strings.Index(line, ":")
		if idx < 0 {
			break
		}
		head := strings.TrimSpace(line[:idx])
		if !isIdent(head) {
			break
		}
		rest := strings.TrimSpace(line[idx+1:])
		// A label before a data directive names the data cursor; before an
		// instruction (or nothing) it names the current PC.
		isData := false
		for _, d := range dataDirectives {
			if strings.HasPrefix(rest, d) {
				isData = true
				break
			}
		}
		if isData {
			if err := p.define(head, p.data); err != nil {
				return err
			}
		} else {
			if err := p.define(head, p.pc); err != nil {
				return err
			}
		}
		line = rest
		if line == "" {
			return nil
		}
	}
	if strings.HasPrefix(line, ".") {
		return p.directive(line)
	}
	return p.instruction(line)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitArgs(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	tail := strings.TrimSpace(s[start:])
	if tail != "" {
		out = append(out, tail)
	}
	return out
}

func (p *parser) directive(line string) error {
	fields := strings.SplitN(line, " ", 2)
	dir := fields[0]
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".org":
		v, err := p.layoutValue(rest)
		if err != nil {
			return err
		}
		if len(p.insts) > 0 || (p.pass == 1 && p.pc != p.base) {
			return p.lineErr(".org after instructions")
		}
		p.base, p.baseSet = uint64(v), true
		p.pc = p.base
		return nil
	case ".data":
		v, err := p.layoutValue(rest)
		if err != nil {
			return err
		}
		p.data = uint64(v)
		return nil
	case ".align":
		v, err := p.layoutValue(rest)
		if err != nil {
			return err
		}
		a := uint64(v)
		if a == 0 || a&(a-1) != 0 {
			return p.tokErr(rest, ".align %d is not a power of two", a)
		}
		p.data = (p.data + a - 1) &^ (a - 1)
		return nil
	case ".equ":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return p.lineErr(".equ wants name and value")
		}
		v, err := p.layoutValue(parts[1])
		if err != nil {
			return err
		}
		return p.define(parts[0], uint64(v))
	case ".zero":
		v, err := p.layoutValue(rest)
		if err != nil {
			return err
		}
		p.data += uint64(v)
		return nil
	case ".u64":
		args := splitArgs(rest)
		if p.pass == 2 {
			vals := make([]uint64, len(args))
			for i, a := range args {
				v, err := p.immediate(a)
				if err != nil {
					return err
				}
				vals[i] = uint64(v)
			}
			data := make([]byte, 8*len(vals))
			for i, v := range vals {
				for j := 0; j < 8; j++ {
					data[i*8+j] = byte(v >> (8 * j))
				}
			}
			p.segs = append(p.segs, Segment{Addr: p.data, Data: data})
		}
		p.data += 8 * uint64(len(args))
		return nil
	case ".byte":
		args := splitArgs(rest)
		if p.pass == 2 {
			data := make([]byte, len(args))
			for i, a := range args {
				v, err := p.immediate(a)
				if err != nil {
					return err
				}
				data[i] = byte(v)
			}
			p.segs = append(p.segs, Segment{Addr: p.data, Data: data})
		}
		p.data += uint64(len(args))
		return nil
	case ".ascii":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return p.tokErr(rest, ".ascii: %v", err)
		}
		if p.pass == 2 {
			p.segs = append(p.segs, Segment{Addr: p.data, Data: []byte(s)})
		}
		p.data += uint64(len(s))
		return nil
	case ".hex":
		if len(rest)%2 != 0 {
			return p.tokErr(rest, ".hex wants an even number of hex digits")
		}
		if p.pass == 2 {
			data, err := hex.DecodeString(rest)
			if err != nil {
				return p.tokErr(rest, ".hex: %v", err)
			}
			p.segs = append(p.segs, Segment{Addr: p.data, Data: data})
		}
		p.data += uint64(len(rest) / 2)
		return nil
	}
	return p.tokErr(dir, "unknown directive %q", dir)
}

// immediate evaluates an integer literal or symbol.  During pass one symbols
// may be unresolved; zero is substituted (only sizes matter in pass one).
func (p *parser) immediate(s string) (int64, error) {
	return p.value(s, p.pass == 1)
}

// layoutValue evaluates the operand of .org, .data, .align, .zero or .equ.
// Pass one lays the program out and binds symbols with these values, so a
// symbol they name must be defined above them: a forward reference would
// read as zero in pass one and disagree with pass two.
func (p *parser) layoutValue(s string) (int64, error) {
	return p.value(s, false)
}

// value evaluates an integer literal or symbol; forward substitutes zero
// for a symbol not defined yet.
func (p *parser) value(s string, forward bool) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, p.lineErr("missing immediate")
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, strings.TrimSpace(s[1:])
	}
	var v int64
	if u, err := strconv.ParseUint(s, 0, 64); err == nil {
		v = int64(u)
	} else if isIdent(s) {
		sym, ok := p.syms[s]
		if !ok {
			if forward {
				return 0, nil
			}
			return 0, p.tokErr(s, "undefined symbol %q", s)
		}
		v = int64(sym)
	} else {
		return 0, p.tokErr(s, "bad immediate %q", s)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// memOperand parses "[base]", "[base + off]", "[base + idx*scale]",
// "[base + idx*scale + off]"; off may be negative or symbolic.
func (p *parser) memOperand(s string) (base, idx isa.Reg, scale uint8, imm int64, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, 0, 0, p.tokErr(s, "bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	// Normalise "a - b" to "a + -b" so we can split on '+'.
	inner = strings.ReplaceAll(inner, "-", "+ -")
	parts := strings.Split(inner, "+")
	first := true
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		switch {
		case first:
			base, err = p.parseReg(part)
			if err != nil {
				return
			}
			first = false
		case strings.Contains(part, "*"):
			var r isa.Reg
			var sc int64
			sub := strings.SplitN(part, "*", 2)
			r, err = p.parseReg(sub[0])
			if err != nil {
				return
			}
			if idx != isa.NoReg {
				err = p.tokErr(part, "two index registers in %q", s)
				return
			}
			sc, err = p.immediate(sub[1])
			if err != nil {
				return
			}
			switch sc {
			case 1, 2, 4, 8, 16:
				scale = uint8(log2(uint64(sc)))
			default:
				err = p.tokErr(part, "bad scale %d", sc)
				return
			}
			idx = r
		default:
			if r, rerr := isa.ParseReg(part); rerr == nil && !strings.HasPrefix(part, "-") {
				if idx != isa.NoReg {
					err = p.tokErr(part, "two index registers in %q", s)
					return
				}
				idx = r // [base + idx] with scale 1
				continue
			}
			var v int64
			v, err = p.immediate(part)
			if err != nil {
				return
			}
			imm += v
		}
	}
	if first {
		err = p.tokErr(s, "memory operand %q has no base register", s)
	}
	return
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// floatImm parses an fmovi operand: a Go float literal (decimal or hex
// form), or "nan:0x<bits>" carrying an exact 64-bit payload.  The canonical
// emitter writes hex-float / nan: forms, so parse → emit → parse is
// bit-exact.
func (p *parser) floatImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if rest, ok := strings.CutPrefix(s, "nan:"); ok {
		bits, err := strconv.ParseUint(rest, 0, 64)
		if err != nil {
			return 0, p.tokErr(s, "fmovi: bad nan payload: %v", err)
		}
		return int64(bits), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, p.tokErr(s, "fmovi: %v", err)
	}
	return int64(math.Float64bits(f)), nil
}

func (p *parser) instruction(line string) error {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	mnemonic = strings.ToLower(mnemonic)

	// Pseudo-instruction: mov rd, rs.
	if mnemonic == "mov" {
		args := splitArgs(rest)
		if len(args) != 2 {
			return p.lineErr("mov wants 2 operands")
		}
		rd, err := p.parseReg(args[0])
		if err != nil {
			return err
		}
		rs, err := p.parseReg(args[1])
		if err != nil {
			return err
		}
		p.emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs1: rs})
		return nil
	}

	op, ok := isa.OpcodeByName(mnemonic)
	if !ok {
		return p.tokErr(mnemonic, "unknown mnemonic %q", mnemonic)
	}
	args := splitArgs(rest)
	slots := op.Operands()
	if len(args) != len(slots) {
		return p.lineErr("%s wants %d operands, got %d", op, len(slots), len(args))
	}
	in := isa.Inst{Op: op}
	for i, slot := range slots {
		var err error
		switch slot {
		case isa.OperandRd:
			in.Rd, err = p.parseReg(args[i])
		case isa.OperandRs1:
			in.Rs1, err = p.parseReg(args[i])
		case isa.OperandRs2:
			in.Rs2, err = p.parseReg(args[i])
		case isa.OperandRs3:
			in.Rs3, err = p.parseReg(args[i])
		case isa.OperandImm:
			in.Imm, err = p.immediate(args[i])
		case isa.OperandFloat:
			in.Imm, err = p.floatImm(args[i])
		case isa.OperandMem:
			in.Rs1, in.Rs2, in.Scale, in.Imm, err = p.memOperand(args[i])
		case isa.OperandTarget:
			var t int64
			t, err = p.immediate(args[i])
			in.Target = uint64(t)
		}
		if err != nil {
			return err
		}
	}
	p.emit(in)
	return nil
}

func (p *parser) emit(in isa.Inst) {
	if p.pass == 2 {
		p.insts = append(p.insts, in)
	}
	p.pc += isa.InstBytes
}
