package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunDeterministicOrdering(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	square := func(_ context.Context, v int) (int, error) { return v * v, nil }

	serial, err := Run(context.Background(), items, square, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 200} {
		got, err := Run(context.Background(), items, square, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: results differ from serial run", workers)
		}
	}
	for i, v := range serial {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	got, err := Run(context.Background(), []int{1, 2, 3},
		func(_ context.Context, v int) (int, error) { return v + 1, nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run(context.Background(), nil,
		func(_ context.Context, v int) (int, error) { return v, nil }, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty sweep: got %v, %v", got, err)
	}
}

func TestRunErrorCapture(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	fail := errors.New("boom")
	results, err := Run(context.Background(), items, func(_ context.Context, v int) (int, error) {
		if v%2 == 1 {
			return 0, fmt.Errorf("odd %d: %w", v, fail)
		}
		return v * 10, nil
	}, Options{Workers: 3})
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	if !errors.Is(err, fail) {
		t.Errorf("joined error does not wrap the job error: %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("joined error carries no *JobError: %v", err)
	}
	if je.Index != 1 {
		t.Errorf("first JobError index = %d, want 1 (errors must sort by input index)", je.Index)
	}
	// Successful jobs still report results; failed slots are zero.
	want := []int{0, 0, 20, 0, 40, 0}
	if !reflect.DeepEqual(results, want) {
		t.Errorf("results = %v, want %v", results, want)
	}
	if n := strings.Count(err.Error(), "odd "); n != 3 {
		t.Errorf("joined error mentions %d failures, want 3: %v", n, err)
	}
}

func TestFirstFailFast(t *testing.T) {
	items := []int{0, 1, 2}
	_, err := First(context.Background(), items, func(_ context.Context, v int) (int, error) {
		if v > 0 {
			return 0, fmt.Errorf("job-%d failed", v)
		}
		return v, nil
	}, Options{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	if got := err.Error(); got != "job 1: job-1 failed" {
		t.Errorf("First must surface the lowest-index failure alone, got %q", got)
	}
}

// TestRunPreCancelled: a context cancelled before Run is called must never
// dispatch a job, even when idle workers make the send side of the select
// ready — Done has to win deterministically, not probabilistically.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for trial := 0; trial < 50; trial++ {
		var ran atomic.Int32
		_, err := Run(ctx, []int{1, 2, 3}, func(_ context.Context, v int) (int, error) {
			ran.Add(1)
			return v, nil
		}, Options{Workers: 3})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("trial %d: err = %v, want context.Canceled", trial, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("trial %d: %d jobs ran on a pre-cancelled context", trial, n)
		}
	}
}

// TestFirstStopsDispatching: fail-fast must not burn the rest of the grid
// after the first failure (the serial drivers' early-exit semantics).
func TestFirstStopsDispatching(t *testing.T) {
	items := make([]int, 1000)
	var ran atomic.Int32
	_, err := First(context.Background(), items, func(_ context.Context, _ int) (int, error) {
		ran.Add(1)
		return 0, errors.New("always fails")
	}, Options{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	// Workers drain at most the jobs in flight when the stop fires; with 2
	// workers that is a handful, never anything close to the full 1000.
	if n := ran.Load(); n > 100 {
		t.Errorf("fail-fast ran %d of 1000 jobs, want an early stop", n)
	}
}

func TestRunCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 64)
	var started atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	_, err := Run(ctx, items, func(_ context.Context, v int) (int, error) {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
		return v, nil
	}, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// With 2 workers, at most the in-flight jobs (plus one blocked send that
	// won the race against ctx.Done) run; the rest must never start.
	if n := started.Load(); n > 4 {
		t.Errorf("%d jobs started after cancellation, want <= 4", n)
	}
}

func TestRunProgressSerialAndComplete(t *testing.T) {
	items := make([]int, 37)
	var calls []int
	_, err := Run(context.Background(), items, func(_ context.Context, v int) (int, error) {
		time.Sleep(time.Microsecond)
		return v, nil
	}, Options{Workers: 8, OnProgress: func(done, total int) {
		if total != len(items) {
			t.Errorf("total = %d, want %d", total, len(items))
		}
		calls = append(calls, done) // data race here would fail -race
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(items) {
		t.Fatalf("%d progress calls, want %d", len(calls), len(items))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress call %d reported done=%d, want %d (must be monotonic)", i, d, i+1)
		}
	}
}

func TestExpandRowMajor(t *testing.T) {
	axes := []Axis{
		{Name: "rob", Values: []string{"64", "256"}},
		{Name: "kind", Values: []string{"none", "original", "vector"}},
	}
	points := Expand(axes)
	if len(points) != 6 {
		t.Fatalf("Expand produced %d points, want 6", len(points))
	}
	want := []string{
		"rob=64 kind=none", "rob=64 kind=original", "rob=64 kind=vector",
		"rob=256 kind=none", "rob=256 kind=original", "rob=256 kind=vector",
	}
	for i, p := range points {
		if got := FormatPoint(axes, p); got != want[i] {
			t.Errorf("point %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestExpandDegenerate(t *testing.T) {
	if pts := Expand(nil); len(pts) != 1 || len(pts[0]) != 0 {
		t.Errorf("Expand(nil) = %v, want one empty point", pts)
	}
	empty := []Axis{{Name: "x"}}
	if pts := Expand(empty); len(pts) != 0 {
		t.Errorf("Expand with a valueless axis = %v, want no points", pts)
	}
}

// TestRunJobPanicIsError pins the server-safety contract: a panicking job
// becomes a JobError on that input instead of killing the worker goroutine
// (and with it the whole process).
func TestRunJobPanicIsError(t *testing.T) {
	got, err := Run(context.Background(), []int{0, 1, 2}, func(_ context.Context, v int) (int, error) {
		if v == 1 {
			panic("boom")
		}
		return v * 10, nil
	}, Options{Workers: 2})
	jobErrs := Errors(err)
	if len(jobErrs) != 1 || jobErrs[0].Index != 1 {
		t.Fatalf("Errors = %v, want one error at index 1", jobErrs)
	}
	if got[0] != 0 || got[2] != 20 {
		t.Fatalf("surviving results = %v", got)
	}
}

// TestRunErroredSlotStaysZero pins the documented contract: a failing job
// never publishes a partial result, even if fn returned one with the error.
func TestRunErroredSlotStaysZero(t *testing.T) {
	got, err := Run(context.Background(), []int{1}, func(_ context.Context, v int) (int, error) {
		return 99, errors.New("partial")
	}, Options{Workers: 1})
	if err == nil {
		t.Fatal("want error")
	}
	if got[0] != 0 {
		t.Errorf("errored slot = %d, want zero value", got[0])
	}
}

// TestPanicErrorCarriesStack: the recovered panic is a *PanicError whose
// stack names the panic site, so a campaign report is actionable without
// reproducing the crash.
func TestPanicErrorCarriesStack(t *testing.T) {
	_, err := Run(context.Background(), []int{0}, func(_ context.Context, v int) (int, error) {
		panic("boom with stack")
	}, Options{Workers: 1})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *PanicError: %v", err, err)
	}
	if pe.Value != "boom with stack" {
		t.Fatalf("recovered value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "sweep_test.go") {
		t.Fatalf("stack does not name the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "boom with stack") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}
