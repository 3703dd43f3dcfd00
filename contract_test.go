// Byte-identity contracts: every result this repository reproduces is a byte
// string the program emits, and testdata/contracts.txt pins each one by its
// SHA-256.  A change that keeps every line keeps every output byte; a change
// that moves a line edits the file and gives the line a new reason.
package specrun

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

	"specrun/internal/asm"
	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/difftest"
	"specrun/internal/leak"
	"specrun/internal/prog"
	"specrun/internal/proggen"
	"specrun/internal/server"
	"specrun/internal/sweep"
	"specrun/internal/trace"
	"specrun/internal/workload"
)

const contractsFile = "testdata/contracts.txt"

// contract is one pinned output: its name in the contract file and the
// function that writes its bytes.
type contract struct {
	name  string
	write func(w io.Writer) error
}

// contracts lists every pinned output in the contract file's order.
func contracts() []contract {
	var cs []contract
	// The body of POST /v1/run/{driver} and of `specrun <figure> --format
	// json` on the Table 1 machine with default params.
	for _, d := range server.Drivers() {
		cs = append(cs, contract{"run/" + d.Name, runBody(d.Name, attack.DefaultParams())})
	}
	leakSecret := attack.DefaultParams()
	leakSecret.Secret = []byte("SPECRUN") // `specrun leak`'s default --text
	cs = append(cs, contract{"run/leak-SPECRUN", runBody("leak", leakSecret)})

	// The quick-matrix campaigns from seed 1 that `specrun fuzz --json`
	// and POST /v1/run/fuzz emit.
	cs = append(cs,
		contract{"fuzz/diff-200", campaign(difftest.CampaignSpec{Seeds: 200}, difftest.Run)},
		contract{"fuzz/leaks-100", campaign(difftest.CampaignSpec{Seeds: 100, Leaks: true}, leak.Run)},
		contract{"fuzz/interleave-100", campaign(difftest.CampaignSpec{Seeds: 100, Interleave: true}, difftest.Run)},
	)

	// The .sprog encoding and canonical disassembly of every built-in
	// program, one line per group over the group's concatenation.
	for _, g := range programGroups() {
		cs = append(cs,
			contract{"sprog/" + g.name, programBytes(g.build, false)},
			contract{"disasm/" + g.name, programBytes(g.build, true)},
		)
	}

	// `specrun trace --attack pht --format kanata|o3`.
	for _, format := range []string{"kanata", "o3"} {
		cs = append(cs, contract{"trace/pht-" + format, phtTrace(format)})
	}
	return cs
}

func runBody(driver string, p attack.Params) func(io.Writer) error {
	return func(w io.Writer) error {
		res, err := server.Run(context.Background(), driver, core.DefaultConfig(), p, 0)
		if err != nil {
			return err
		}
		b, err := server.Encode(res)
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	}
}

// campaign runs spec at 1 and 2 workers and writes the report once both
// encodings agree: a report must not depend on the worker count.
func campaign[R any](spec difftest.CampaignSpec, run func(context.Context, difftest.CampaignSpec, sweep.Options) (R, error)) func(io.Writer) error {
	return func(w io.Writer) error {
		var reports [2][]byte
		for i := range reports {
			rep, err := run(context.Background(), spec, sweep.Options{Workers: i + 1})
			if err != nil {
				return err
			}
			if reports[i], err = server.Encode(rep); err != nil {
				return err
			}
		}
		if !bytes.Equal(reports[0], reports[1]) {
			return errors.New("report differs between 1 and 2 workers")
		}
		_, err := w.Write(reports[0])
		return err
	}
}

type programGroup struct {
	name  string
	build func() ([]*asm.Program, error)
}

func programGroups() []programGroup {
	return []programGroup{
		{"kernels", func() ([]*asm.Program, error) {
			var ps []*asm.Program
			for _, k := range workload.Kernels() {
				ps = append(ps, k.Build())
			}
			return ps, nil
		}},
		{"pocs", func() ([]*asm.Program, error) {
			var params []attack.Params
			for _, v := range []attack.Variant{attack.VariantPHT, attack.VariantBTB, attack.VariantRSBOverwrite, attack.VariantRSBFlush} {
				p := attack.DefaultParams()
				p.Variant = v
				params = append(params, p)
			}
			fig11 := attack.DefaultParams()
			fig11.Secret, fig11.NopPad = []byte{127}, 300
			var ps []*asm.Program
			for _, p := range append(params, fig11) {
				prog, _, err := attack.Build(p)
				if err != nil {
					return nil, err
				}
				ps = append(ps, prog)
			}
			return ps, nil
		}},
		{"windows", func() ([]*asm.Program, error) {
			var ps []*asm.Program
			for _, s := range []attack.WindowScenario{attack.Window1NormalFlushOnce, attack.Window2RunaheadFlushOnce, attack.Window3RunaheadFlushRepeat} {
				ps = append(ps, attack.BuildWindowProgram(s))
			}
			return ps, nil
		}},
		{"proggen", func() ([]*asm.Program, error) {
			secret := proggen.DefaultOptions()
			secret.SecretBytes = 64
			var ps []*asm.Program
			for _, opt := range []proggen.Options{proggen.DefaultOptions(), secret} {
				for seed := int64(1); seed <= 3000; seed++ {
					ps = append(ps, proggen.Generate(seed, opt))
				}
			}
			return ps, nil
		}},
	}
}

// programBytes writes each program's .sprog bytes, or with disasm the
// disassembly `specrun disasm` prints for them.
func programBytes(build func() ([]*asm.Program, error), disasm bool) func(io.Writer) error {
	return func(w io.Writer) error {
		ps, err := build()
		if err != nil {
			return err
		}
		for _, p := range ps {
			bin, err := prog.Encode(p)
			if err != nil {
				return err
			}
			if disasm {
				text, err := prog.Disassemble(bin)
				if err != nil {
					return err
				}
				bin = []byte(text)
			}
			if _, err := w.Write(bin); err != nil {
				return err
			}
		}
		return nil
	}
}

// phtTrace writes what `specrun trace --attack pht --format <format>` does.
func phtTrace(format string) func(io.Writer) error {
	return func(w io.Writer) error {
		p := attack.DefaultParams()
		prog, _, err := attack.Build(p)
		if err != nil {
			return err
		}
		m := core.NewMachine(attack.ConfigFor(p.Variant, core.DefaultConfig()), prog)
		enc, ok := trace.NewEncoder(format, w)
		if !ok {
			return fmt.Errorf("unknown trace format %q", format)
		}
		m.SetTracer(enc.Event)
		if err := m.Run(50_000_000); err != nil && !errors.Is(err, cpu.ErrMaxCycles) {
			return err
		}
		return enc.Close()
	}
}

// readContracts parses the contract file, "name sha256 reason" per line
// with blank lines and #-comments skipped, into each name's SHA-256.
func readContracts(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sums := make(map[string]string)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: want \"name sha256 reason\", got %q", path, n, text)
		}
		if _, dup := sums[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, fields[0])
		}
		sums[fields[0]] = fields[1]
	}
	return sums, sc.Err()
}

// TestContracts recomputes every pinned output and compares its SHA-256
// with the contract file.  It fails on a moved, missing or extra line and
// prints each moved or missing line in the file's format, to be pasted in
// with the reason it moved.
func TestContracts(t *testing.T) {
	want, err := readContracts(contractsFile)
	if err != nil {
		t.Fatal(err)
	}
	var moved []string
	for _, c := range contracts() {
		h := sha256.New()
		if err := c.write(h); err != nil {
			t.Errorf("%s: %v", c.name, err)
			delete(want, c.name)
			continue
		}
		got := hex.EncodeToString(h.Sum(nil))
		sum, ok := want[c.name]
		delete(want, c.name)
		switch {
		case !ok:
			t.Errorf("%s: not in %s", c.name, contractsFile)
		case sum != got:
			t.Errorf("%s moved: %s in %s, computed %s", c.name, sum, contractsFile, got)
		default:
			continue
		}
		moved = append(moved, c.name+" "+got+" <why it moved>")
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		t.Errorf("%s: in %s but no output has that name", name, contractsFile)
	}
	if len(moved) > 0 {
		t.Logf("the moved lines, in %s's format:\n%s", contractsFile, strings.Join(moved, "\n"))
	}
}
