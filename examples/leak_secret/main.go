// leak_secret runs the full SPECRUN proof-of-concept of Fig. 8: it plants a
// multi-byte secret in the victim's address space, extracts it byte by byte
// through the runahead transient window and the flush+reload covert channel,
// and renders the Fig. 9 probe sweep for the first byte.
package main

import (
	"context"
	"fmt"
	"log"

	"specrun/internal/attack"
	"specrun/internal/core"
)

func main() {
	secret := []byte("SPECRUN!")
	p := attack.DefaultParams()
	p.Secret = secret
	p.NopPad = 300 // beyond the 256-entry ROB: only runahead can leak this

	fmt.Printf("victim secret: %q (planted out of bounds, guarded by a bounds check)\n\n", secret)

	got, results, err := attack.LeakSecret(context.Background(), core.DefaultConfig(), p, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("byte %d: leaked %3d %-4q  probe min %3d cycles @ index %3d (median %d)\n",
			i, got[i], string(rune(got[i])), r.BestLat, r.BestIdx, r.Median)
	}
	fmt.Printf("\nrecovered: %q\n\n", string(got))

	fmt.Println("Fig. 9-style sweep for byte 0:")
	fmt.Print(core.FormatProbe(results[0], 10))
}
