package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // ru_maxrss is in KiB on Linux
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// paperErrPct is the mean relative error, in percent, of the reproduced
// anchors against the paper: the Fig. 7 mean runahead speedup (paper ~11%)
// and the Fig. 10 windows N1/N2/N3 (paper 255 / ~480 / ~840).
func paperErrPct(meanSpeedup float64, n1, n2, n3 uint64) float64 {
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	return 100 * (rel(100*(meanSpeedup-1), 11) +
		rel(float64(n1), 255) + rel(float64(n2), 480) + rel(float64(n3), 840)) / 4
}

// outcome classifies one operation.
type outcome int

const (
	pass  outcome = iota
	fail          // the program reported an error (simulator failure, HTTP error, failed job)
	wrong         // the program returned an output that fails its check
)

// verdict is an operation's outcome with the reason it did not pass.
type verdict struct {
	outcome outcome
	detail  string
}

var passed = verdict{}

func failf(format string, args ...any) verdict {
	return verdict{fail, fmt.Sprintf(format, args...)}
}

func wrongf(format string, args ...any) verdict {
	return verdict{wrong, fmt.Sprintf(format, args...)}
}
