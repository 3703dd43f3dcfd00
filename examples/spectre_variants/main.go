// spectre_variants walks the applicability matrix of §4.3/§4.4: the SPECRUN
// attack through each Spectre training mechanism (PHT, BTB, both RSB forms)
// and on each runahead variant (original, precise, vector).
package main

import (
	"context"
	"fmt"
	"log"

	"specrun/internal/core"
)

func main() {
	rows, err := core.RunVariantMatrix(context.Background(), core.DefaultConfig(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.FormatVariants(rows))
	fmt.Println()
	fmt.Println("every mechanism that lets the branch predictor steer execution past an")
	fmt.Println("unresolved (INV-source) branch inside runahead mode leaks the secret —")
	fmt.Println("the paper's point that the vulnerability is the *combination* of")
	fmt.Println("optimizations, not any single one.")
}
