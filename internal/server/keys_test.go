package server

import (
	"encoding/base64"
	"encoding/json"
	"testing"
)

// TestCacheKeysPinned pins the content address of one request of every
// kind.  A --data-dir keeps hitting across versions only while these keys
// stay put, so a change that moves one must say why in CHANGES.md and
// update the literal here.
func TestCacheKeysPinned(t *testing.T) {
	sprog, err := json.Marshal(base64.StdEncoding.EncodeToString(testProgramBinary(t)))
	if err != nil {
		t.Fatal(err)
	}
	asmSrc, err := json.Marshal(testProgramSrc)
	if err != nil {
		t.Fatal(err)
	}
	driver := func(name string) func(RunRequest) (task, error) {
		d, ok := DriverByName(name)
		if !ok {
			t.Fatalf("unknown driver %q", name)
		}
		return func(req RunRequest) (task, error) { return driverTask(d, req) }
	}
	const (
		fig9Default = "4826cfbd2f043b0fef950e58b8be8bbc05e2de86d15f5a869d35176c2cba77ea"
		programKey  = "00e5892d0af798d03cbee5f5143c9e60671062290c6a482d17120fe12cfe85bb"
	)
	for _, tc := range []struct {
		name string
		task task
		want string
	}{
		{"ipc", taskOf(t, `{}`, driver("ipc")), "7f7074785a73e5554af029d27ec2717bbeccf0d353a136b3b2bb810c1c115ad0"},
		{"fig9", taskOf(t, `{}`, driver("fig9")), fig9Default},
		{"fig10", taskOf(t, `{}`, driver("fig10")), "e29427c6148ed4682363c4c86de4b2adcb60883f2543e231f3bfc23c4e6d848c"},
		{"fig11", taskOf(t, `{}`, driver("fig11")), "8dcd0e58b1bf9ba3e2b17f5d41811eafa4787d0928c2507753dbf803a987e100"},
		{"defense", taskOf(t, `{}`, driver("defense")), "232f92ba0d149100668696b60534958e9749a90a3045d4d8cea9a60fb67794d5"},
		{"variants", taskOf(t, `{}`, driver("variants")), "e2860f226984950b8b6a2dbae965eb30ab699d8b926031cf2963d86c62b1f4f2"},
		{"attack", taskOf(t, `{}`, driver("attack")), "26d6b52a75a2614dff9605f7a09e7d706a3172a99b75880d6b69d4854576868e"},
		{"leak", taskOf(t, `{}`, driver("leak")), "e714873fee123026c8602e93de4722735bf570a6c6c330c8babe605cfb6d1767"},
		{"fig9 rob 128", taskOf(t, `{"config": {"rob_size": 128}}`, driver("fig9")), "aa36864faf7547221b9c781e91f0cc9de2add068c973a69ce9e076c714454a22"},
		// An explicit zero means the Table 1 default, so it names the same
		// machine as an empty overlay.
		{"fig9 rob 0", taskOf(t, `{"config": {"rob_size": 0}}`, driver("fig9")), fig9Default},
		{"attack params", taskOf(t, `{"params": {"variant": "btb", "secret": "QUI=", "secret_idx": 1, "nop_pad": 300}}`, driver("attack")), "2708f87ebc5e92e210e227e77c792225d8222c8b44d7f0d6d4068ad0380b4c42"},
		{"sweep", taskOf(t, `{"mode": "attack", "rob": [64, 256], "runahead": ["original"], "secrets": [86, 127], "pad": 300}`, sweepTask), "d31d1e3e50e9df73b0d7a7a616379582373c370fc1709f197f3713a4c1958e2d"},
		{"fuzz", taskOf(t, `{"seeds": 200, "len": 32}`, fuzzTask), "5c5d7308e73f4e25834ee2b853097f2c44f36c3b051a6f70dfeb9a522ff02c2f"},
		{"leaks", taskOf(t, `{"seeds": 100, "leaks": true}`, fuzzTask), "b13c2c18d02d59e1074577467749ed9c411c7f8172a2ce7e60b0e2d2693e0771"},
		{"interleave", taskOf(t, `{"seeds": 100, "interleave": true, "matrix": "full"}`, fuzzTask), "2b8964be0b7572366c75b035853e4336219d2fe37bfaa4661cb7a3d9c02e7d16"},
		// The same program as assembly text and as canonical binary shares
		// one cache entry.
		{"program asm", taskOf(t, `{"asm": `+string(asmSrc)+`}`, programTask), programKey},
		{"program sprog", taskOf(t, `{"binary": `+string(sprog)+`}`, programTask), programKey},
	} {
		if tc.task.key != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, tc.task.key, tc.want)
		}
	}
}

// TestSweepKeyIgnoresUnusedFields: a sweep field the mode ignores leaves
// the key where the grid without it puts it, so one grid is simulated and
// stored once.
func TestSweepKeyIgnoresUnusedFields(t *testing.T) {
	for _, tc := range []struct{ plain, extra string }{
		{`{"rob": [64], "workloads": ["mcf"]}`, `{"rob": [64], "workloads": ["mcf"], "pad": 300, "secrets": [1], "variants": ["btb"]}`},
		{`{"mode": "attack"}`, `{"mode": "attack", "workloads": ["mcf"]}`},
	} {
		if plain, extra := taskOf(t, tc.plain, sweepTask).key, taskOf(t, tc.extra, sweepTask).key; plain != extra {
			t.Errorf("%s: key %.8s, but %s keys to %.8s", tc.extra, extra, tc.plain, plain)
		}
	}
}

// taskOf decodes a route body into its request type and builds its task.
func taskOf[R any](t *testing.T, body string, build func(R) (task, error)) task {
	t.Helper()
	var req R
	if err := strictUnmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	tk, err := build(req)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}
