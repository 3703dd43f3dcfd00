// rob_window reproduces Fig. 10 / §5.3: runahead execution logically
// enlarges the reorder buffer.  It measures the transient instruction window
// in the paper's three scenarios and shows the per-episode progression of
// scenario ③ (later episodes run deeper as the instruction cache warms).
package main

import (
	"context"
	"fmt"
	"log"

	"specrun/internal/core"
)

func main() {
	cfg := core.DefaultConfig()
	n1, n2, n3, err := core.RunFig10(context.Background(), cfg, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.FormatWindows(n1, n2, n3))
	fmt.Println()
	fmt.Printf("scenario ② episode reaches: %v\n", n2.Reaches)
	fmt.Printf("scenario ③ episode reaches: %v\n", n3.Reaches)
	fmt.Println()
	fmt.Printf("the ROB has %d entries; a single runahead episode already exceeds it\n", cfg.ROBSize)
	fmt.Printf("(N2 = %d), and repeated flushing reaches %.1fx the window (N3 = %d).\n",
		n2.N, float64(n3.N)/float64(cfg.ROBSize), n3.N)
}
