package runahead

import (
	"testing"

	"specrun/internal/isa"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{KindNone: "none", KindOriginal: "original", KindPrecise: "precise", KindVector: "vector"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// The RDT must learn a load-address back-slice over repeated commits, as
// Precise Runahead's pre-execution requires.
func TestRDTLearnsAddressSlice(t *testing.T) {
	r := NewRDT()
	// Loop body:
	//   pc=100: addi r2, r1, 8      (address compute, in slice)
	//   pc=104: mul  r3, r4, r5     (unrelated compute, not in slice)
	//   pc=108: ld   r6, [r2+0]     (the load)
	body := []struct {
		pc uint64
		in isa.Inst
	}{
		{100, isa.Inst{Op: isa.ADDI, Rd: isa.R(2), Rs1: isa.R(1), Imm: 8}},
		{104, isa.Inst{Op: isa.MUL, Rd: isa.R(3), Rs1: isa.R(4), Rs2: isa.R(5)}},
		{108, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(2)}},
	}
	for iter := 0; iter < 3; iter++ {
		for _, s := range body {
			r.ObserveCommit(s.pc, s.in)
		}
	}
	if !r.InSlice(100) {
		t.Error("address producer must be in the stall slice")
	}
	if r.InSlice(104) {
		t.Error("unrelated compute must not be in the stall slice")
	}
	if r.InSlice(108) {
		t.Error("the load itself is not recorded (loads always execute in PRE mode)")
	}
}

// Transitive closure: producers of slice instructions join the slice on
// later iterations.
func TestRDTTransitiveClosure(t *testing.T) {
	r := NewRDT()
	body := []struct {
		pc uint64
		in isa.Inst
	}{
		{100, isa.Inst{Op: isa.SHLI, Rd: isa.R(1), Rs1: isa.R(9), Imm: 3}}, // feeds 104
		{104, isa.Inst{Op: isa.ADD, Rd: isa.R(2), Rs1: isa.R(1), Rs2: isa.R(3)}},
		{108, isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(2)}},
	}
	for iter := 0; iter < 4; iter++ {
		for _, s := range body {
			r.ObserveCommit(s.pc, s.in)
		}
	}
	if !r.InSlice(104) || !r.InSlice(100) {
		t.Fatalf("slice = {100:%v 104:%v}, want both", r.InSlice(100), r.InSlice(104))
	}
	if r.Len() != 2 {
		t.Fatalf("slice size = %d, want 2", r.Len())
	}
}

func TestRDTIgnoresZeroRegister(t *testing.T) {
	r := NewRDT()
	r.ObserveCommit(100, isa.Inst{Op: isa.MOVI, Rd: isa.R(0), Imm: 1})
	r.ObserveCommit(104, isa.Inst{Op: isa.LD, Rd: isa.R(1), Rs1: isa.R(0)})
	if r.Len() != 0 {
		t.Fatal("r0 must not produce slice members")
	}
}

func TestStrideDetector(t *testing.T) {
	d := NewStrideDetector()
	pc := uint64(0x100)
	if _, ok := d.Predict(pc); ok {
		t.Fatal("cold detector must not predict")
	}
	for i := uint64(0); i < 4; i++ {
		d.Observe(pc, 0x1000+i*64)
	}
	stride, ok := d.Predict(pc)
	if !ok || stride != 64 {
		t.Fatalf("stride = %d,%v want 64", stride, ok)
	}
	// A stride break resets confidence.
	d.Observe(pc, 0x9999)
	if _, ok := d.Predict(pc); ok {
		t.Fatal("stride break must clear confidence")
	}
}

func TestStrideDetectorZeroStride(t *testing.T) {
	d := NewStrideDetector()
	for i := 0; i < 5; i++ {
		d.Observe(0x100, 0x1000) // same address repeatedly
	}
	if _, ok := d.Predict(0x100); ok {
		t.Fatal("zero stride must not be predicted (nothing to prefetch)")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Kind != KindOriginal || cfg.RunaheadCacheBytes != 512 || cfg.VectorLanes != 8 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}

// Reset forgets every learned writer along with the slice, and re-learning
// after Reset allocates nothing: a load right after Reset marks no producer
// until its address register is written again.
func TestRDTResetForgetsWriters(t *testing.T) {
	r := NewRDT()
	addr := isa.Inst{Op: isa.ADDI, Rd: isa.R(2), Rs1: isa.R(1), Imm: 8}
	fp := isa.Inst{Op: isa.FMOVI, Rd: isa.F(3), Imm: 1}
	load := isa.Inst{Op: isa.LD, Rd: isa.R(6), Rs1: isa.R(2)}
	r.ObserveCommit(96, fp)
	r.ObserveCommit(100, addr)
	r.ObserveCommit(104, load)
	if !r.InSlice(100) || r.Len() != 1 {
		t.Fatalf("before Reset: slice size %d, want {100}", r.Len())
	}
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset()
		r.ObserveCommit(104, load)
		if r.Len() != 0 {
			t.Fatalf("a writer learned before Reset marked a slice member")
		}
		r.ObserveCommit(100, addr)
		r.ObserveCommit(104, load)
	})
	if allocs != 0 {
		t.Fatalf("Reset + re-learning allocates %.1f times, want 0", allocs)
	}
	if !r.InSlice(100) {
		t.Fatal("re-learning after Reset lost the address producer")
	}
}
