package core

import (
	"context"
	"reflect"
	"testing"
)

// TestIPCComparisonWorkerInvariance is the sweep engine's core guarantee at
// the driver level: Fig. 7 results must be byte-identical no matter how the
// jobs are sharded.
func TestIPCComparisonWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 7 sweep is slow")
	}
	serial, err := RunIPCComparison(context.Background(), DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		parallel, err := RunIPCComparison(context.Background(), DefaultConfig(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel, serial) {
			t.Errorf("workers=%d: Fig. 7 rows differ from the serial run", workers)
		}
	}
}

// TestVariantMatrixWorkerInvariance holds the same guarantee for the
// §4.3/§4.4 applicability matrix, whose six jobs use four different
// attack builders and three machine configurations.
func TestVariantMatrixWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("variant matrix is slow")
	}
	serial, err := RunVariantMatrix(context.Background(), DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunVariantMatrix(context.Background(), DefaultConfig(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel, serial) {
		t.Error("workers=6: variant matrix differs from the serial run")
	}
}

// TestDriverCancellation checks that a pre-cancelled context stops a sweep
// before any simulation runs.
func TestDriverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunIPCComparison(ctx, DefaultConfig(), 2); err == nil {
		t.Error("cancelled IPC sweep must fail")
	}
	if _, err := RunVariantMatrix(ctx, DefaultConfig(), 2); err == nil {
		t.Error("cancelled variant sweep must fail")
	}
	if _, err := RunDefense(ctx, DefaultConfig(), 2); err == nil {
		t.Error("cancelled defense sweep must fail")
	}
}

// TestDriverErrorPropagation: an impossible machine configuration must
// surface as an error from the parallel driver, not a hang or a panic.
func TestDriverErrorPropagation(t *testing.T) {
	bad := DefaultConfig()
	bad.ROBSize = 0 // machine cannot commit anything: the run budget trips
	if _, err := RunIPCComparison(context.Background(), bad, 4); err == nil {
		t.Error("want error from a non-progressing machine")
	}
}
