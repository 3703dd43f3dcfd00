package core

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/cpu"
	"specrun/internal/difftest"
)

// TestConfigFieldsCoverConfig walks Config by reflection: every numeric
// field must have exactly one row in the rule table, under its JSON path.
// Fields whose wire form is a name (runahead.kind, runahead.trigger_level)
// are not numbers on the wire and have no row.
func TestConfigFieldsCoverConfig(t *testing.T) {
	var cfg Config
	textType := reflect.TypeFor[encoding.TextMarshaler]()
	want := map[string]uintptr{} // JSON path → field address
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			path := prefix + strings.Split(f.Tag.Get("json"), ",")[0]
			switch {
			case f.Type.Implements(textType):
			case fv.Kind() == reflect.Struct:
				walk(fv, path+".")
			case fv.CanInt() || fv.CanUint() || fv.CanFloat():
				want[path] = fv.Addr().Pointer()
			}
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")

	seen := map[string]bool{}
	for _, f := range configFields(&cfg) {
		if seen[f.path] {
			t.Errorf("%s has two rows", f.path)
		}
		seen[f.path] = true
		if addr, ok := want[f.path]; !ok || addr != reflect.ValueOf(f.v).Pointer() {
			t.Errorf("row %s does not point at the field with that JSON path", f.path)
		}
	}
	for path := range want {
		if !seen[path] {
			t.Errorf("numeric field %s has no row", path)
		}
	}
}

// overlayDoc is the JSON overlay that sets the field at a dotted path.
func overlayDoc(path string, v int) string {
	doc := strconv.Itoa(v)
	parts := strings.Split(path, ".")
	for i := len(parts) - 1; i >= 0; i-- {
		doc = fmt.Sprintf(`{%q: %s}`, parts[i], doc)
	}
	return doc
}

// violations returns one overlay per rule Validate enforces: each field
// below its range (at -1, since an explicit zero means the default) and
// one above it, each masked field off a power of two, each cache with a set
// count that is not a power of two and with too many lines, and the BTB
// with too many entries.
func violations() []string {
	var docs []string
	for _, f := range configFields(new(Config)) {
		docs = append(docs, overlayDoc(f.path, -1), overlayDoc(f.path, f.max+1))
		if f.pow2 {
			docs = append(docs, overlayDoc(f.path, 3))
		}
	}
	for _, path := range cachePaths {
		docs = append(docs,
			overlayDoc(path+".size", 3<<12),
			fmt.Sprintf(`{"mem": {%q: {"size": %d, "assoc": 2}}}`, path[len("mem."):], 2*maxCacheLines*64))
	}
	return append(docs, fmt.Sprintf(`{"branch": {"btb_sets": %d, "btb_assoc": 2}}`, maxBTBEntries))
}

func TestOverlayRules(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{`{}`, ""},
		{`{"rob_size": 0}`, ""}, // an explicit zero means the Table 1 default
		{`{"branch": {"btb_tag_bits": 0}}`, ""},
		{`{"mem": {"line_size": 16, "l1i": {"size": 262144}}, "front_q": 64}`, ""},
		{`{"rob_sz": 1}`, `config: json: unknown field "rob_sz"`},
		{`{"rob_size": -1}`, "core: config field rob_size = -1 out of range (1..16384)"},
		{`{"rob_size": 16385}`, "core: config field rob_size = 16385 out of range (1..16384)"},
		{`{"mem": {"l1d": {"size": -4096}}}`, "core: config field mem.l1d.size = -4096 out of range (1..1073741824)"},
		{`{"branch": {"btb_tag_bits": 65}}`, "core: config field branch.btb_tag_bits = 65 out of range (0..64)"},
		// A register file with no register to rename a writer into.
		{`{"int_prf": 32}`, "core: config field int_prf = 32 out of range (33..32768)"},
		{`{"fp_prf": 16}`, "core: config field fp_prf = 16 out of range (17..32768)"},
		{`{"vec_prf": 16}`, "core: config field vec_prf = 16 out of range (17..32768)"},
		// Each precondition the constructors panic on.
		{`{"mem": {"line_size": 48}}`, "core: config field mem.line_size = 48 is not a power of two"},
		{`{"branch": {"pht_size": 1000}}`, "core: config field branch.pht_size = 1000 is not a power of two"},
		{`{"branch": {"btb_sets": 100}}`, "core: config field branch.btb_sets = 100 is not a power of two"},
		{`{"mem": {"l1i": {"size": 12288}}}`, "core: config mem.l1i: size 12288 / (assoc 4 × line_size 64) = 48 sets, not a power of two"},
		{`{"mem": {"l1d": {"size": 128}}}`, "core: config mem.l1d: size 128 / (assoc 4 × line_size 64) = 0 sets, not a power of two"},
		{`{"mem": {"l2": {"size": 196608}}}`, "core: config mem.l2: size 196608 / (assoc 8 × line_size 64) = 384 sets, not a power of two"},
		{`{"mem": {"l3": {"size": 6291456}}}`, "core: config mem.l3: size 6291456 / (assoc 8 × line_size 64) = 12288 sets, not a power of two"},
		// Sizes derived across fields.
		{`{"mem": {"l3": {"size": 33554432}}}`, "core: config mem.l3: 65536 sets × assoc 8 = 524288 lines, above 262144"},
		{`{"mem": {"line_size": 1, "l1d": {"size": 67108864}}}`, "core: config mem.l1d: 16777216 sets × assoc 4 = 67108864 lines, above 262144"},
		{`{"branch": {"btb_sets": 65536, "btb_assoc": 2}}`, "core: config branch: btb_sets 65536 × btb_assoc 2 = 131072 entries, above 65536"},
	} {
		_, err := Overlay(DefaultConfig(), []byte(tc.doc))
		if got := fmt.Sprint(err); (err == nil) != (tc.want == "") || err != nil && got != tc.want {
			t.Errorf("Overlay(%s) = %v, want %q", tc.doc, err, tc.want)
		}
	}
	for _, doc := range violations() {
		if _, err := Overlay(DefaultConfig(), []byte(doc)); err == nil {
			t.Errorf("Overlay(%s) accepted a config that breaks a rule", doc)
		}
	}
}

// TestRepositoryConfigsValid: every machine the repository builds passes
// Validate — the paper's machines, both fuzz matrices, the BTB PoC's
// predictor, the Table 1 register files and the Fig. 10 probe values.
func TestRepositoryConfigsValid(t *testing.T) {
	cfgs := map[string]Config{
		"default":  DefaultConfig(),
		"baseline": BaselineConfig(),
		"secure":   SecureConfig(),
		"btb":      attack.ConfigFor(attack.VariantBTB, DefaultConfig()),
		"table1":   cpu.Table1RegisterFiles(DefaultConfig()),
	}
	for _, full := range []bool{false, true} {
		for _, nc := range difftest.Matrix(full) {
			cfgs["matrix "+nc.Name] = nc.Config
		}
	}
	probe := DefaultConfig()
	probe.Mem.L1I.Size, probe.FrontQ, probe.Mem.MemLatency = 256<<10, 64, 400
	cfgs["fig10 probe"] = probe
	for name, cfg := range cfgs {
		if err := Validate(cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestNormalizeValidateAllocs: the service normalizes and validates every
// request's config, so the pair must not allocate.
func TestNormalizeValidateAllocs(t *testing.T) {
	cfg := DefaultConfig()
	if n := testing.AllocsPerRun(100, func() {
		if Validate(Normalize(cfg)) != nil {
			t.Fatal("Table 1 config rejected")
		}
	}); n != 0 {
		t.Fatalf("Normalize+Validate allocated %v times per call", n)
	}
}

func BenchmarkNormalizeValidate(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for b.Loop() {
		if Validate(Normalize(cfg)) != nil {
			b.Fatal("Table 1 config rejected")
		}
	}
}

// machineBudget is what the largest machine Validate accepts may allocate.
const machineBudget = 128 << 20

// TestLargestMachineWithinBudget builds, once, the largest machine Validate
// accepts.  Every structure New allocates grows with a bounded field, so
// each field sits at its bound; a cache costs per line and per set, so
// each is direct-mapped with the most lines it may have; BTB entries cost
// the same however sets and ways split them.
func TestLargestMachineWithinBudget(t *testing.T) {
	cfg := DefaultConfig()
	for _, f := range configFields(&cfg) {
		*f.v = f.max
	}
	for _, c := range configCaches(&cfg) {
		c.Size, c.Assoc = maxCacheLines*cfg.Mem.LineSize, 1
	}
	cfg.Branch.BTBSets, cfg.Branch.BTBAssoc = maxBTBEntries, 1
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Parse("halt", ".org 0x1000\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := NewMachine(cfg, prog)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("largest machine: %.1f MB", float64(alloc)/(1<<20))
	if alloc > machineBudget {
		t.Fatalf("largest valid machine allocated %.1f MB, budget %d MB", float64(alloc)/(1<<20), machineBudget>>20)
	}
}

// FuzzConfigOverlay feeds arbitrary bytes through Overlay, the one path a
// configuration takes in from outside.  It must never panic, and whatever
// it accepts is a fixed point: Normalize leaves it unchanged, and
// overlaying its own JSON encoding on the Table 1 machine gives it back
// with the same cache key.  No machine is built.
func FuzzConfigOverlay(f *testing.F) {
	for _, doc := range []string{
		`{}`, `null`, `{"rob_size": 128}`, `{"rob_size": 0}`, `{"rob_size": -1}`, `{"rob_sz": 1}`,
		`{"mem": {"l1d": {"size": -4096}}}`, `{"nonsense": 1}`,
		`{"runahead": {"kind": "vector", "trigger_level": "l2"}, "secure": {"enabled": true}}`,
		`{"mem": {"l1i": {"name": "", "size": 262144}}, "front_q": 64}`,
	} {
		f.Add([]byte(doc))
	}
	for _, doc := range violations() {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := Overlay(DefaultConfig(), doc)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(Normalize(cfg), cfg) {
			t.Fatalf("accepted config is not normalized: %+v", cfg)
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Overlay(DefaultConfig(), enc)
		if err != nil {
			t.Fatalf("own encoding refused: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("own encoding overlays to a different config:\n%s", enc)
		}
		k1, err1 := HashKey("config", cfg)
		k2, err2 := HashKey("config", again)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("cache keys differ: %s (%v) against %s (%v)", k1, err1, k2, err2)
		}
	})
}
