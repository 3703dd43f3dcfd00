package server

import (
	"context"
	"fmt"
	"strconv"

	"specrun/internal/attack"
	"specrun/internal/core"
	"specrun/internal/runahead"
	"specrun/internal/sweep"
	"specrun/internal/workload"
)

// SweepSpec is the grid specification shared by `specrun sweep` and
// POST /v1/sweep: the cross product of the axes below expands into
// independent simulations on the sweep engine.  Empty fields take the same
// defaults as the CLI flags.
type SweepSpec struct {
	Mode      string   `json:"mode,omitempty"`      // "ipc" (default) | "attack"
	ROB       []int    `json:"rob,omitempty"`       // default [256]
	Runahead  []string `json:"runahead,omitempty"`  // default ["none","original"]
	Workloads []string `json:"workloads,omitempty"` // ipc mode; empty or ["all"] = every kernel
	Variants  []string `json:"variants,omitempty"`  // attack mode; default ["pht"]
	Secrets   []int    `json:"secrets,omitempty"`   // attack mode; default [86]
	Pad       int      `json:"pad,omitempty"`       // attack mode: nops before the secret access
	Secure    bool     `json:"secure,omitempty"`    // §6 SL-cache defense on every point
	Workers   int      `json:"workers,omitempty"`   // worker goroutines (0 = GOMAXPROCS)
}

// SweepResult is one row per grid point: the axis values (as strings) plus
// the measured metrics; a failing point carries its message in the "error"
// column instead of hiding the rest of the grid.
type SweepResult struct {
	Cols []string         `json:"cols"`
	Rows []map[string]any `json:"rows"`
}

// withDefaults fills the CLI-equivalent defaults, so an explicit default
// and an omitted field expand (and content-hash) identically.
func (s SweepSpec) withDefaults() SweepSpec {
	if s.Mode == "" {
		s.Mode = "ipc"
	}
	if len(s.ROB) == 0 {
		s.ROB = []int{256}
	}
	if len(s.Runahead) == 0 {
		s.Runahead = []string{"none", "original"}
	}
	if s.Mode == "ipc" && (len(s.Workloads) == 0 || (len(s.Workloads) == 1 && s.Workloads[0] == "all")) {
		s.Workloads = nil
		for _, k := range workload.Kernels() {
			s.Workloads = append(s.Workloads, k.Name)
		}
	}
	if len(s.Variants) == 0 {
		s.Variants = []string{"pht"}
	}
	if len(s.Secrets) == 0 {
		s.Secrets = []int{86}
	}
	return s
}

// axes validates the spec and assembles the grid axes; every axis value is
// checked up front, by the rules the run routes apply to a config and to
// params, so a typo fails before any simulation starts.
func (s SweepSpec) axes() ([]sweep.Axis, error) {
	robAxis := sweep.Axis{Name: "rob"}
	for _, n := range s.ROB {
		if n <= 0 {
			return nil, fmt.Errorf("sweep: bad ROB size %d", n)
		}
		cfg := core.DefaultConfig()
		cfg.ROBSize = n
		if err := core.Validate(cfg); err != nil {
			return nil, err
		}
		robAxis.Values = append(robAxis.Values, strconv.Itoa(n))
	}
	kindAxis := sweep.Axis{Name: "runahead"}
	for _, v := range s.Runahead {
		var k runahead.Kind
		if err := k.UnmarshalText([]byte(v)); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		kindAxis.Values = append(kindAxis.Values, v)
	}
	axes := []sweep.Axis{robAxis, kindAxis}
	switch s.Mode {
	case "ipc":
		wAxis := sweep.Axis{Name: "workload"}
		for _, v := range s.Workloads {
			if _, err := workload.ByName(v); err != nil {
				return nil, err
			}
			wAxis.Values = append(wAxis.Values, v)
		}
		axes = append(axes, wAxis)
	case "attack":
		p := attack.DefaultParams()
		p.NopPad = s.Pad
		if err := p.Validate(); err != nil {
			return nil, err
		}
		vAxis := sweep.Axis{Name: "variant"}
		for _, v := range s.Variants {
			var av attack.Variant
			if err := av.UnmarshalText([]byte(v)); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			vAxis.Values = append(vAxis.Values, v)
		}
		sAxis := sweep.Axis{Name: "secret"}
		for _, n := range s.Secrets {
			if _, err := attack.SecretByte(n); err != nil {
				return nil, fmt.Errorf("sweep: %w", err)
			}
			sAxis.Values = append(sAxis.Values, strconv.Itoa(n))
		}
		axes = append(axes, vAxis, sAxis)
	default:
		return nil, fmt.Errorf("sweep: unknown mode %q", s.Mode)
	}
	for _, a := range axes {
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", a.Name)
		}
	}
	return axes, nil
}

// RunSweep expands and executes a sweep grid.  On a validation error the
// result is zero and the error describes the bad field; otherwise rows
// cover the full grid, per-point failures land in the "error" column (and
// in the returned join, see sweep.Errors), and a cancelled run marks the
// points that never simulated.
func RunSweep(ctx context.Context, spec SweepSpec, opt sweep.Options) (SweepResult, []sweep.Axis, error) {
	spec = spec.withDefaults()
	axes, err := spec.axes()
	if err != nil {
		return SweepResult{}, nil, err
	}
	points := sweep.Expand(axes)
	if opt.Workers == 0 {
		opt.Workers = spec.Workers
	}

	var cols []string
	var results []map[string]any
	var runErr error
	switch spec.Mode {
	case "ipc":
		cols, results, runErr = sweepIPC(ctx, points, spec.Secure, opt)
	case "attack":
		cols, results, runErr = sweepAttack(ctx, points, spec.Pad, spec.Secure, opt)
	}
	return SweepResult{Cols: cols, Rows: mergeSweepRows(points, results, runErr)}, axes, runErr
}

// sweepTask builds the task for a sweep grid, validating every axis up
// front so a bad grid is a 400 and never counts as (or coalesces with) a
// simulation.  One grid has one key: Workers tunes execution, not the
// result, so it never reaches the key; the fields the mode ignores hash as
// if unset; and withDefaults makes explicit defaults and omitted fields
// hash alike.  Progress counts grid points.
func sweepTask(spec SweepSpec) (task, error) {
	keySpec := spec.withDefaults()
	if _, err := keySpec.axes(); err != nil {
		return task{}, err
	}
	keySpec.Workers = 0
	switch keySpec.Mode {
	case "ipc":
		keySpec.Variants, keySpec.Secrets, keySpec.Pad = nil, nil, 0
	case "attack":
		keySpec.Workloads = nil
	}
	key, err := core.HashKey("sweep", keySpec.withDefaults())
	if err != nil {
		return task{}, fmt.Errorf("cache key: %w", err)
	}
	return task{kind: "sweep", key: key, run: func(ctx context.Context, progress func(done, total int)) (any, error) {
		res, _, err := RunSweep(ctx, spec, sweep.Options{OnProgress: progress})
		if err != nil && ctx.Err() != nil {
			// Stopped mid-grid: rows that never simulated are marked
			// "cancelled", so the grid is only a partial result.
			return res, ctx.Err()
		}
		// Per-point failures are deterministic: they sit in the rows'
		// error column and cache with the rest of the grid.
		return res, nil
	}}, nil
}

// pointConfig builds the machine configuration for one grid point.
func pointConfig(p sweep.Point, secure bool) (core.Config, error) {
	cfg := core.DefaultConfig()
	rob, err := strconv.Atoi(p["rob"])
	if err != nil {
		return cfg, fmt.Errorf("sweep: bad ROB size %q", p["rob"])
	}
	cfg.ROBSize = rob
	if err := cfg.Runahead.Kind.UnmarshalText([]byte(p["runahead"])); err != nil {
		return cfg, err
	}
	cfg.Secure.Enabled = secure
	return cfg, nil
}

func sweepIPC(ctx context.Context, points []sweep.Point, secure bool, opt sweep.Options) ([]string, []map[string]any, error) {
	results, err := sweep.Run(ctx, points, func(_ context.Context, p sweep.Point) (map[string]any, error) {
		cfg, err := pointConfig(p, secure)
		if err != nil {
			return nil, err
		}
		k, err := workload.ByName(p["workload"])
		if err != nil {
			return nil, err
		}
		st, err := core.RunProgramStats(cfg, k.Build())
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"cycles":   st.Cycles,
			"insts":    st.Committed,
			"ipc":      st.IPC(),
			"episodes": st.RunaheadEpisodes,
		}, nil
	}, opt)
	cols := []string{"rob", "runahead", "workload", "cycles", "insts", "ipc", "episodes", "error"}
	return cols, results, err
}

func sweepAttack(ctx context.Context, points []sweep.Point, pad int, secure bool, opt sweep.Options) ([]string, []map[string]any, error) {
	results, err := sweep.Run(ctx, points, func(_ context.Context, p sweep.Point) (map[string]any, error) {
		cfg, err := pointConfig(p, secure)
		if err != nil {
			return nil, err
		}
		params := attack.DefaultParams()
		if err := params.Variant.UnmarshalText([]byte(p["variant"])); err != nil {
			return nil, err
		}
		sec, err := strconv.Atoi(p["secret"])
		if err != nil {
			return nil, fmt.Errorf("sweep: bad secret %q", p["secret"])
		}
		params.Secret = []byte{byte(sec)}
		params.NopPad = pad
		r, err := core.RunAttack(cfg, params)
		if err != nil {
			return nil, err
		}
		leakedByte := -1
		if v, ok := r.LeakedByte(); ok {
			leakedByte = int(v)
		}
		return map[string]any{
			"leaked":       r.Leaked,
			"leaked_byte":  leakedByte,
			"best_idx":     r.BestIdx,
			"best_lat":     r.BestLat,
			"median":       r.Median,
			"episodes":     r.Stats.RunaheadEpisodes,
			"inv_branches": r.Stats.INVBranches,
		}, nil
	}, opt)
	cols := []string{"rob", "runahead", "variant", "secret", "leaked", "leaked_byte", "best_idx", "best_lat", "median", "episodes", "inv_branches", "error"}
	return cols, results, err
}

// mergeSweepRows joins grid points with their metric maps, attaching
// per-job error strings so one failing point doesn't hide the rest.
// Points the engine never ran (cancelled mid-sweep) are marked in the
// error column so downstream tooling can tell them from measured rows.
func mergeSweepRows(points []sweep.Point, results []map[string]any, err error) []map[string]any {
	perJob := map[int]string{}
	for _, je := range sweep.Errors(err) {
		perJob[je.Index] = je.Err.Error()
	}
	rows := make([]map[string]any, len(points))
	for i, p := range points {
		errCell := perJob[i]
		if errCell == "" && results[i] == nil && err != nil {
			errCell = "cancelled"
		}
		row := map[string]any{"error": errCell}
		for k, v := range p {
			row[k] = v
		}
		for k, v := range results[i] {
			row[k] = v
		}
		rows[i] = row
	}
	return rows
}
