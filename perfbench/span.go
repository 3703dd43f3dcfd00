package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the harness around a
// public function of the program.  Spans of one operation share Op; Parent
// is the enclosing span's ID (0 at the operation's root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends (write).  Safe for
// concurrent use: sweep workers record spans in parallel.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs fn inside a span named name and returns the span's duration.  fn
// receives the new span's ID so that nested calls can name it as their
// parent.
func (t *tracer) do(name string, parent, op int64, fn func(id int64)) time.Duration {
	id := t.next.Add(1)
	start := time.Since(t.epoch)
	fn(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return end - start
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span ID to its self time: its duration minus the
// union of its children's intervals (clipped to the span).  Parallel
// children overlap, so summing their durations would over-subtract.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// concurrent returns how long at least n of the intervals run at once,
// within [lo, hi].
func concurrent(ivs [][2]int64, n int, lo, hi int64) int64 {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			edges = append(edges, edge{a, 1}, edge{b, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a shared instant
	})
	var total int64
	depth := 0
	for i, e := range edges {
		if depth >= n && i > 0 {
			total += e.at - edges[i-1].at
		}
		depth += e.delta
	}
	return total
}

// perOpSelf sums self time (ns) per span name per operation.
func perOpSelf(spans []span) map[string]map[int64]int64 {
	self := selfTimes(spans)
	out := make(map[string]map[int64]int64)
	for _, s := range spans {
		m := out[s.Name]
		if m == nil {
			m = make(map[int64]int64)
			out[s.Name] = m
		}
		m[s.Op] += self[s.ID]
	}
	return out
}

// meanPerOp averages a per-operation total over ops operations (operations
// in which the layer never ran count as zero).
func meanPerOp(byOp map[int64]int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	var sum int64
	for _, v := range byOp {
		sum += v
	}
	return float64(sum) / float64(ops)
}

// perCall returns the mean self time (ns) of the spans named name.
func perCall(spans []span, name string) float64 {
	self := selfTimes(spans)
	var sum int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			sum += self[s.ID]
			n++
		}
	}
	return ratio(float64(sum), float64(n))
}

// count returns how many spans carry name.
func count(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// intervals returns the [start, end] pairs of the spans named name.
func intervals(spans []span, name string) [][2]int64 {
	var out [][2]int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, [2]int64{s.Start, s.End})
		}
	}
	return out
}
