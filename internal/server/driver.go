package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"specrun/internal/attack"
	"specrun/internal/core"
)

// Driver is one paper experiment exposed at POST /v1/run/{name} and behind
// the CLI's --format json.
type Driver struct {
	Name       string
	Artifact   string // the paper table/figure the endpoint reproduces
	UsesParams bool   // attack params participate in execution and the cache key
	run        func(ctx context.Context, cfg core.Config, p attack.Params, workers int) (any, error)
}

// IPCResponse is the body of POST /v1/run/ipc (Fig. 7).
type IPCResponse struct {
	Rows        []core.IPCRow `json:"rows"`
	MeanSpeedup float64       `json:"mean_speedup"`
}

// Fig10Response is the body of POST /v1/run/fig10 (the N1/N2/N3 windows).
type Fig10Response struct {
	N1 attack.WindowResult `json:"n1"`
	N2 attack.WindowResult `json:"n2"`
	N3 attack.WindowResult `json:"n3"`
}

// VariantsResponse is the body of POST /v1/run/variants (§4.3/§4.4 matrix).
type VariantsResponse struct {
	Rows []core.VariantOutcome `json:"rows"`
}

// LeakResponse is the body of POST /v1/run/leak (multi-byte extraction).
type LeakResponse struct {
	Recovered string          `json:"recovered"` // recovered secret as text (0 where the channel missed)
	Bytes     []byte          `json:"bytes"`     // the same bytes, base64 (safe for non-UTF-8 secrets)
	Results   []attack.Result `json:"results"`   // one PoC run per secret byte
}

// runOne executes a single PoC simulation under the server-wide worker
// budget (see holdGate).
func runOne(ctx context.Context, cfg core.Config, p attack.Params) (core.AttackResult, error) {
	release, err := holdGate(ctx)
	if err != nil {
		return core.AttackResult{}, err
	}
	defer release()
	return core.RunAttack(cfg, p)
}

// drivers lists the run endpoints in paper order.  fig9 and attack share an
// implementation: fig9 with default params is exactly the paper's Fig. 9,
// attack is the general form.
var drivers = []Driver{
	{"ipc", "Fig. 7 — normalized IPC over the six benchmarks", false,
		func(ctx context.Context, cfg core.Config, _ attack.Params, workers int) (any, error) {
			rows, err := core.RunIPCComparison(ctx, cfg, workers)
			if err != nil {
				return nil, err
			}
			return IPCResponse{Rows: rows, MeanSpeedup: core.MeanSpeedup(rows)}, nil
		}},
	{"fig9", "Fig. 9 — PHT PoC probe sweep (secret byte 86)", true,
		func(ctx context.Context, cfg core.Config, p attack.Params, _ int) (any, error) {
			return runOne(ctx, cfg, p)
		}},
	{"fig10", "Fig. 10 — N1/N2/N3 transient-window measurements", false,
		func(ctx context.Context, cfg core.Config, _ attack.Params, workers int) (any, error) {
			n1, n2, n3, err := core.RunFig10(ctx, cfg, workers)
			if err != nil {
				return nil, err
			}
			return Fig10Response{N1: n1, N2: n2, N3: n3}, nil
		}},
	{"fig11", "Fig. 11 — beyond-the-ROB leak on both machines", false,
		func(ctx context.Context, cfg core.Config, _ attack.Params, workers int) (any, error) {
			return core.RunFig11(ctx, cfg, workers)
		}},
	{"defense", "§6 — SL cache and skip-INV mitigations", false,
		func(ctx context.Context, cfg core.Config, _ attack.Params, workers int) (any, error) {
			return core.RunDefense(ctx, cfg, workers)
		}},
	{"variants", "§4.3/§4.4 — attack applicability matrix", false,
		func(ctx context.Context, cfg core.Config, _ attack.Params, workers int) (any, error) {
			rows, err := core.RunVariantMatrix(ctx, cfg, workers)
			if err != nil {
				return nil, err
			}
			return VariantsResponse{Rows: rows}, nil
		}},
	{"attack", "one PoC run with explicit variant/secret/padding", true,
		func(ctx context.Context, cfg core.Config, p attack.Params, _ int) (any, error) {
			return runOne(ctx, cfg, p)
		}},
	{"leak", "multi-byte secret extraction (one PoC per byte)", true,
		func(ctx context.Context, cfg core.Config, p attack.Params, workers int) (any, error) {
			got, results, err := attack.LeakSecret(ctx, cfg, p, workers)
			if err != nil {
				return nil, err
			}
			return LeakResponse{Recovered: string(got), Bytes: got, Results: results}, nil
		}},
}

// Drivers returns the run-endpoint registry in paper order.
func Drivers() []Driver {
	return append([]Driver(nil), drivers...)
}

// DriverByName looks up a run endpoint.
func DriverByName(name string) (Driver, bool) {
	for _, d := range drivers {
		if d.Name == name {
			return d, true
		}
	}
	return Driver{}, false
}

// Run executes the named driver: the call a driver task makes on both
// server paths, shared with the CLI's --format json, so every consumer
// produces the same result values (and, through [Encode], the same bytes).
func Run(ctx context.Context, driver string, cfg core.Config, p attack.Params, workers int) (any, error) {
	d, ok := DriverByName(driver)
	if !ok {
		return nil, fmt.Errorf("server: unknown driver %q", driver)
	}
	return d.run(ctx, cfg, p, workers)
}

// driverTask builds the task for one driver invocation.  Its key hashes the
// config, plus the params for drivers that use them; worker counts are
// deliberately excluded, since results are worker-invariant.  A driver
// job's progress goes from 0/1 to 1/1.
func driverTask(d Driver, req RunRequest) (task, error) {
	cfg, p, err := req.resolve()
	if err != nil {
		return task{}, err
	}
	keyParts := []any{cfg}
	if d.UsesParams {
		keyParts = append(keyParts, p)
	}
	key, err := core.HashKey(d.Name, keyParts...)
	if err != nil {
		return task{}, fmt.Errorf("cache key: %w", err)
	}
	return task{kind: d.Name, key: key, run: func(ctx context.Context, _ func(done, total int)) (any, error) {
		res, err := d.run(ctx, cfg, p, req.Workers)
		if err != nil {
			return nil, err // fig11 and defense return a typed zero value with their error
		}
		return res, nil
	}}, nil
}

// RunRequest is the body of POST /v1/run/{driver} (and, embedded, of
// POST /v1/jobs).  Both documents are partial overlays: config decodes over
// core.DefaultConfig() and params over attack.DefaultParams(), so `{}` or
// an empty body runs the paper's Table 1 machine.
type RunRequest struct {
	Config  json.RawMessage `json:"config,omitempty"`
	Params  json.RawMessage `json:"params,omitempty"`
	Workers int             `json:"workers,omitempty"` // worker goroutines for multi-run drivers (0 = GOMAXPROCS); the server budget still applies
}

// resolve overlays the partial documents onto the paper defaults.  The
// returned config is the normalized one the cache key hashes, so an
// explicitly zeroed field ("rob_size": 0 = use the default) can never
// simulate a machine other than the one its key names.
func (r RunRequest) resolve() (core.Config, attack.Params, error) {
	cfg, err := core.Overlay(core.DefaultConfig(), r.Config)
	if err != nil {
		return cfg, attack.Params{}, err
	}
	p := attack.DefaultParams()
	if len(r.Params) > 0 {
		if err := strictUnmarshal(r.Params, &p); err != nil {
			return cfg, p, fmt.Errorf("params: %w", err)
		}
	}
	return cfg, p, p.Validate()
}

// strictUnmarshal decodes JSON rejecting unknown fields, so a typo in a
// request body fails loudly instead of silently running the defaults.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
