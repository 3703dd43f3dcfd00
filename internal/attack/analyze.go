package attack

import (
	"context"
	"fmt"
	"sort"

	"specrun/internal/cpu"
	"specrun/internal/sweep"
)

// Analysis interprets one probe sweep (the data behind Fig. 9 / Fig. 11).
type Analysis struct {
	Latencies []uint64 `json:"latencies"`
	BestIdx   int      `json:"best_idx"` // index with the fastest access
	BestLat   uint64   `json:"best_lat"` // its latency
	Median    uint64   `json:"median"`   // median across all indices
	Leaked    bool     `json:"leaked"`   // BestLat is an outlier hit: the covert channel fired
}

// hitFactor: an index counts as leaked if its latency is below median/hitFactor.
const hitFactor = 3

// Analyze classifies a probe sweep.
func Analyze(lat []uint64) Analysis {
	a := Analysis{Latencies: lat, BestIdx: -1}
	if len(lat) == 0 {
		return a
	}
	sorted := append([]uint64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	a.Median = sorted[len(sorted)/2]
	best := uint64(1<<63 - 1)
	for i, v := range lat {
		if v < best {
			best, a.BestIdx = v, i
		}
	}
	a.BestLat = best
	a.Leaked = a.Median > 0 && best < a.Median/hitFactor
	return a
}

// LeakedByte returns the recovered byte if the channel fired.
func (a Analysis) LeakedByte() (byte, bool) {
	if !a.Leaked || a.BestIdx < 0 {
		return 0, false
	}
	return byte(a.BestIdx), true
}

// Result is one full PoC run.  The embedded Analysis flattens into the JSON
// document, so the wire shape is {"latencies": ..., "layout": ..., "stats": ...}.
type Result struct {
	Analysis
	Layout Layout    `json:"layout"`
	Stats  cpu.Stats `json:"stats"`
}

// runBudget bounds one PoC simulation.
const runBudget = 10_000_000

// Run builds and executes the PoC on a machine with configuration cfg,
// adjusted for the variant (ConfigFor) and borrowed from the CPU model's
// machine pool.
func Run(cfg cpu.Config, p Params) (Result, error) {
	prog, l, err := Build(p)
	if err != nil {
		return Result{}, err
	}
	c := cpu.Borrow(ConfigFor(p.Variant, cfg), prog)
	defer c.Release()
	if err := c.Run(runBudget); err != nil {
		return Result{}, fmt.Errorf("attack: %s run: %w", p.Variant, err)
	}
	return Result{
		Analysis: Analyze(ReadLatencies(c, l)),
		Layout:   l,
		Stats:    c.StatsCopy(),
	}, nil
}

// LeakSecret extracts every byte of p.Secret by re-running the PoC with an
// advancing target address, as the paper's attacker would.  It returns the
// recovered bytes (0 where the channel failed) and the per-byte results.
// Each byte extraction is an independent PoC run on its own Reset machine,
// so they shard across the sweep engine with `workers` goroutines
// (0 = GOMAXPROCS), honouring ctx.
func LeakSecret(ctx context.Context, cfg cpu.Config, p Params, workers int) ([]byte, []Result, error) {
	idx := make([]int, len(p.Secret))
	for i := range idx {
		idx[i] = i
	}
	results, err := sweep.First(ctx, idx, func(_ context.Context, i int) (Result, error) {
		q := p
		q.SecretIdx = i
		return Run(cfg, q)
	}, sweep.Options{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	out := make([]byte, len(p.Secret))
	for i, r := range results {
		if v, ok := r.LeakedByte(); ok {
			out[i] = v
		}
	}
	return out, results, nil
}
