// Command perfbench is specrun's benchmark harness.  It drives one of three
// workloads through the program's public entry points for a fixed time,
// checks every operation's output, and prints one JSON line with the
// end-to-end metrics; with --trace 1 it instead repeats the same work with
// spans around each layer's public functions and prints per-layer metrics.
//
//	bash perfbench/run.sh --workload figures|campaign|serve --seed N --seconds S --trace 0|1
//
// The workloads, metrics and their bounds are declared in BENCHMARK.json at
// the repository root; NOTES.md beside this file records why each workload
// exists, its steadiness and the known defects it keeps visible.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// workers is the parallelism everywhere: sweep workers, client connections
// and the server's simulation budget (the benchmark host has two cores).
const workers = 2

// Timed runs split the measured seconds into segments and repeat the cold
// set-up at every segment boundary, so set-up samples land in different
// host-speed phases of the run.
const (
	segments       = 5
	setupsPerBound = 3
)

// runner is one named benchmark workload.
type runner interface {
	// prepare derives the run's inputs and reference outputs from seed.
	// It is untimed; only the generated inputs reach the program.
	prepare(ctx context.Context, seed int64) error
	// warmup is how long the untimed warm-up load runs (at least one
	// operation per client).
	warmup() time.Duration
	// setup performs one cold repetition of the program's own set-up and
	// returns its duration.
	setup(ctx context.Context) (time.Duration, error)
	// clients is the number of closed-loop callers.
	clients() int
	// tailPct is the percentile op_tail_ms reports, fixed per workload so
	// that runs of BENCHMARK.json's length always leave at least ten
	// samples above it (NOTES.md gives each choice).
	tailPct() float64
	// op runs operation k for client c and returns its latency.
	op(ctx context.Context, c int, k int64) (verdict, time.Duration)
	// paperErr returns the reproduction's paper_err_pct.
	paperErr(ctx context.Context) (float64, error)
	// traced repeats the workload's operations for d with spans and
	// returns the per-layer metrics.
	traced(ctx context.Context, tr *tracer, d time.Duration) (tracedRun, error)
	// close stops anything the workload started and removes its files.
	close()
}

// tracedRun is the outcome of a traced run.
type tracedRun struct {
	layers  map[string]float64
	tally   tally
	opWalls []float64 // wall time of each traced operation, ms
}

// tally counts operations by outcome.
type tally struct {
	attempted, failed, wrong int
}

func (t *tally) add(v verdict, what string) {
	t.attempted++
	if v.outcome != pass {
		t.failed++
		if v.outcome == wrong {
			t.wrong++
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", what, v.detail)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string) (runner, error) {
	switch name {
	case "figures":
		return &figures{}, nil
	case "campaign":
		return &campaign{}, nil
	case "serve":
		return &serve{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (figures|campaign|serve)", name)
}

func main() {
	name := flag.String("workload", "", "figures | campaign | serve")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run printing per-layer metrics")
	flag.Parse()
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, seconds int, traced bool) (result, error) {
	if seconds < 1 {
		return result{}, fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	w, err := newWorkload(name)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	ctx := context.Background()
	if err := w.prepare(ctx, seed); err != nil {
		return result{}, fmt.Errorf("%s: prepare: %w", name, err)
	}
	if traced {
		return runTraced(ctx, w, name, seed, seconds)
	}
	return runTimed(ctx, w, name, seed, seconds)
}

// runTimed is the end-to-end run: warm-up, then segments of closed-loop
// load with cold set-up repetitions at every segment boundary.
func runTimed(ctx context.Context, w runner, name string, seed int64, seconds int) (result, error) {
	var (
		next   atomic.Int64
		t      tally
		lat    []float64
		wall   time.Duration
		setups []float64
	)
	load := func(d time.Duration, measured bool) {
		l, el := segment(ctx, w.clients(), w.op, d, &next, &t)
		if measured {
			lat = append(lat, l...)
			wall += el
		}
	}
	doSetup := func() error {
		for range setupsPerBound {
			d, err := w.setup(ctx)
			if err != nil {
				return fmt.Errorf("%s: setup: %w", name, err)
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}

	load(w.warmup(), false)
	for range segments {
		if err := doSetup(); err != nil {
			return result{}, err
		}
		load(time.Duration(seconds)*time.Second/segments, true)
	}
	if err := doSetup(); err != nil {
		return result{}, err
	}
	rss := peakRSSMB()
	perr, err := w.paperErr(ctx)
	if err != nil {
		return result{}, fmt.Errorf("%s: paper anchors: %w", name, err)
	}

	pct := w.tailPct()
	above := len(lat) - int(math.Ceil(pct/100*float64(len(lat))))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d measured ops in %.2fs; op_tail_ms is p%g with %d samples above it; %d set-up repetitions\n",
		name, seed, len(lat), wall.Seconds(), pct, above, len(setups))
	return result{
		Correct:   t.wrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(setups), "s"},
			"ops_per_s":     {float64(len(lat)) / wall.Seconds(), "1/s"},
			"op_p50_ms":     {median(lat), "ms"},
			"op_tail_ms":    {percentile(lat, pct), "ms"},
			"success_rate":  {float64(t.attempted-t.failed) / float64(t.attempted), "ratio"},
			"peak_rss_mb":   {rss, "MB"},
			"paper_err_pct": {perr, "%"},
		},
	}, nil
}

// opFunc runs operation k for client c and returns its latency.
type opFunc func(ctx context.Context, c int, k int64) (verdict, time.Duration)

// segment runs the closed loop for d: each of clients callers issues
// operations back to back (at least one each) until the deadline, and the
// segment ends when the last operation returns.  It returns the latencies
// in milliseconds and the wall time.
func segment(ctx context.Context, clients int, op opFunc, d time.Duration, next *atomic.Int64, t *tally) ([]float64, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var (
		mu  sync.Mutex
		lat []float64
		wg  sync.WaitGroup
	)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				k := next.Add(1) - 1
				v, took := op(ctx, c, k)
				mu.Lock()
				t.add(v, fmt.Sprintf("op %d", k))
				lat = append(lat, float64(took.Nanoseconds())/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(start)
}

// runTraced is the separate traced run: per-layer metrics from spans.
func runTraced(ctx context.Context, w runner, name string, seed int64, seconds int) (result, error) {
	tr := newTracer()
	start := time.Now()
	out, err := w.traced(ctx, tr, time.Duration(seconds)*time.Second)
	if err != nil {
		return result{}, fmt.Errorf("%s: traced run: %w", name, err)
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("%s: writing spans: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced run of %d ops in %.2fs, %d spans written to %s\n",
		name, seed, len(out.opWalls), time.Since(start).Seconds(), len(tr.snapshot()), path)

	out.layers["trace.op_wall_ms"] = median(out.opWalls)
	metrics := make(map[string]metric, len(layerUnits))
	for n, unit := range layerUnits {
		metrics[n] = metric{out.layers[n], unit}
	}
	for n := range out.layers {
		if _, ok := layerUnits[n]; !ok {
			return result{}, fmt.Errorf("%s: layer metric %q has no declared unit", name, n)
		}
	}
	return result{
		Correct:   out.tally.wrong == 0,
		Attempted: out.tally.attempted,
		Failed:    out.tally.failed,
		Metrics:   metrics,
	}, nil
}
