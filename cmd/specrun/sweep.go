package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"specrun/internal/server"
	"specrun/internal/sweep"
)

// runSweep implements `specrun sweep`: a user-defined parameter grid
// (ROB size × runahead kind × workload kernel, or × Spectre variant ×
// secret byte in attack mode) expanded into independent jobs and sharded
// across the sweep engine, with JSON/CSV output for downstream plotting.
// The grid logic lives in internal/server (SweepSpec), which also backs
// POST /v1/sweep — the CLI and the HTTP API run identical grids.
//
//	specrun sweep --rob 64,128,256 --runahead none,original,precise,vector --workloads all
//	specrun sweep --mode attack --runahead original,precise --variants pht,btb --secrets 86,127 --pad 300 --format csv
func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	mode := fs.String("mode", "ipc", "ipc | attack")
	robs := fs.String("rob", "256", "comma-separated ROB sizes")
	kinds := fs.String("runahead", "none,original", "comma-separated runahead kinds (none|original|precise|vector)")
	workloads := fs.String("workloads", "all", "ipc mode: comma-separated kernels, or 'all'")
	variants := fs.String("variants", "pht", "attack mode: comma-separated Spectre variants (pht|btb|rsb-overwrite|rsb-flush)")
	secrets := fs.String("secrets", "86", "attack mode: comma-separated secret byte values")
	pad := fs.Int("pad", 0, "attack mode: nops between branch and secret access")
	secure := fs.Bool("secure", false, "enable the §6 SL-cache defense on every grid point")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	format := fs.String("format", "table", "table | json | csv")
	out := fs.String("out", "", "output file (default stdout)")
	quiet := fs.Bool("quiet", false, "suppress the progress line on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *format {
	case "table", "json", "csv":
	default:
		return fmt.Errorf("sweep: unknown format %q", *format)
	}
	spec := server.SweepSpec{
		Mode:      *mode,
		Runahead:  splitCSV(*kinds),
		Workloads: splitCSV(*workloads),
		Variants:  splitCSV(*variants),
		Pad:       *pad,
		Secure:    *secure,
		Workers:   *workers,
	}
	var err error
	if spec.ROB, err = parseIntCSV("ROB size", *robs); err != nil {
		return err
	}
	if spec.Secrets, err = parseIntCSV("secret byte", *secrets); err != nil {
		return err
	}

	// Ctrl-C cancels the sweep: running jobs finish, queued jobs never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := sweep.Options{Workers: *workers}
	if !*quiet {
		opt.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d jobs", done, total)
		}
	}

	res, axes, err := server.RunSweep(ctx, spec, opt)
	if !*quiet {
		fmt.Fprintln(os.Stderr) // terminate the \r progress line
	}
	if res.Rows == nil {
		return err // the grid never ran: validation failure
	}
	// Name each failing grid point on stderr; the error column carries the
	// same text for machine consumers.
	points := sweep.Expand(axes)
	for _, je := range sweep.Errors(err) {
		fmt.Fprintf(os.Stderr, "sweep: %s: %v\n", sweep.FormatPoint(axes, points[je.Index]), je.Err)
	}
	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		var ferr error
		if f, ferr = os.Create(*out); ferr != nil {
			return ferr
		}
		w = f
	}
	werr := writeSweep(w, *format, res.Cols, res.Rows)
	if f != nil {
		// A failed close loses buffered rows; it must not report success.
		if cerr := f.Close(); cerr != nil {
			werr = errors.Join(werr, cerr)
		}
	}
	if werr != nil {
		return werr
	}
	return err
}

// splitCSV splits a comma-separated flag value, dropping empty items.
func splitCSV(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// parseIntCSV parses a comma-separated integer list.
func parseIntCSV(what, s string) ([]int, error) {
	var out []int
	for _, v := range splitCSV(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad %s %q", what, v)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeSweep renders the merged rows as an aligned table, JSON, or CSV.
func writeSweep(w io.Writer, format string, cols []string, rows []map[string]any) error {
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	case "csv":
		cw := csv.NewWriter(w)
		if err := cw.Write(cols); err != nil {
			return err
		}
		for _, row := range rows {
			rec := make([]string, len(cols))
			for i, c := range cols {
				rec[i] = cellString(row[c])
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	case "table":
		widths := make([]int, len(cols))
		for i, c := range cols {
			widths[i] = len(c)
		}
		cells := make([][]string, len(rows))
		for r, row := range rows {
			cells[r] = make([]string, len(cols))
			for i, c := range cols {
				s := cellString(row[c])
				cells[r][i] = s
				if len(s) > widths[i] {
					widths[i] = len(s)
				}
			}
		}
		printRow := func(rec []string) {
			for i, s := range rec {
				fmt.Fprintf(w, "%-*s  ", widths[i], s)
			}
			fmt.Fprintln(w)
		}
		printRow(cols)
		for _, rec := range cells {
			printRow(rec)
		}
		return nil
	}
	return fmt.Errorf("sweep: unknown format %q", format)
}

func cellString(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case float64:
		return strconv.FormatFloat(x, 'f', 4, 64)
	default:
		return fmt.Sprint(v)
	}
}
