package main

import (
	"strings"
	"testing"
)

// TestCLIParamsRules: `specrun attack` and `specrun leak` refuse, before
// building anything, the params the run routes refuse, with the routes'
// messages, and `specrun attack` refuses a secret byte the sweep route
// refuses.
func TestCLIParamsRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"attack --pad 100000", func() error { _, _, err := attackFlags([]string{"--pad", "100000"}); return err },
			"params: nop_pad 100000 out of range (0..65536)"},
		{"attack --secret 300", func() error { _, _, err := attackFlags([]string{"--secret", "300"}); return err },
			"attack: secret byte 300 out of range"},
		{"leak --text <257 bytes>", func() error { return runLeak([]string{"--text", strings.Repeat("x", 257)}) },
			"params: secret length 257 out of range (1..256 bytes)"},
	} {
		if err := tc.run(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}
