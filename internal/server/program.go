package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"specrun/internal/asm"
	"specrun/internal/core"
	"specrun/internal/cpu"
	"specrun/internal/prog"
)

// maxProgramCycles bounds the per-request cycle budget a submitted program
// may ask for.
const maxProgramCycles = 4 * core.DefaultProgramBudget

// ProgramRequest is the body of POST /v1/run/program (and the program arm
// of POST /v1/jobs): an arbitrary program in interchange form — assembly
// text or the canonical .sprog binary (base64 in JSON) — plus an optional
// partial config overlay and cycle budget.  Exactly one of asm/binary must
// be set.
type ProgramRequest struct {
	Config    json.RawMessage `json:"config,omitempty"`
	Asm       string          `json:"asm,omitempty"`
	Binary    []byte          `json:"binary,omitempty"`
	MaxCycles uint64          `json:"max_cycles,omitempty"` // 0 = core.DefaultProgramBudget
}

// ProgramResponse is the body of POST /v1/run/program.
type ProgramResponse struct {
	Sprog string    `json:"sprog_sha256"` // content address of the canonical binary
	Insts int       `json:"insts"`
	Base  uint64    `json:"base"`
	Stats cpu.Stats `json:"stats"`
}

// resolvedProgram is a validated submission: the decoded program, its
// canonical binary (the content address — identical for asm and binary
// submissions of the same program), the normalized config and the effective
// budget.
type resolvedProgram struct {
	cfg    core.Config
	prog   *asm.Program
	bin    []byte
	budget uint64
}

// format is the submission format, for the metrics label: "asm" or
// "binary".
func (r ProgramRequest) format() string {
	if r.Asm != "" {
		return "asm"
	}
	return "binary"
}

// resolve validates a submission.  Whatever the input form, the program is
// funnelled through the canonical binary codec, so validation limits
// (instruction/data/symbol bounds, canonical instructions) apply uniformly
// and the cache key depends only on program identity.
func (r ProgramRequest) resolve() (resolvedProgram, error) {
	var out resolvedProgram
	switch {
	case r.Asm == "" && len(r.Binary) == 0:
		return out, fmt.Errorf("program: one of asm or binary is required")
	case r.Asm != "" && len(r.Binary) > 0:
		return out, fmt.Errorf("program: asm and binary are mutually exclusive")
	case r.Asm != "":
		p, err := asm.Parse("request", r.Asm)
		if err != nil {
			return out, err
		}
		bin, err := prog.Encode(p)
		if err != nil {
			return out, err
		}
		out.prog, out.bin = p, bin
	default:
		p, err := prog.Decode(r.Binary)
		if err != nil {
			return out, err
		}
		out.prog, out.bin = p, r.Binary
	}
	if len(out.prog.Insts) == 0 {
		return out, fmt.Errorf("program: no instructions")
	}
	out.budget = r.MaxCycles
	if out.budget == 0 {
		out.budget = core.DefaultProgramBudget
	}
	if out.budget > maxProgramCycles {
		return out, fmt.Errorf("program: max_cycles %d exceeds limit %d", r.MaxCycles, maxProgramCycles)
	}
	var err error
	out.cfg, err = core.Overlay(core.DefaultConfig(), r.Config)
	return out, err
}

// programTask builds the task for a program submission.  The key
// content-addresses the run by the canonical program bytes — not the Go
// structs and not the submission format — so identical programs submitted
// as asm and as binary coalesce onto one cache entry.  Progress counts
// megacycles, starting from the 0/budget a job announces.
func programTask(req ProgramRequest) (task, error) {
	rp, err := req.resolve()
	if err != nil {
		return task{}, err
	}
	key, err := core.HashKey("program", rp.bin, rp.cfg, rp.budget)
	if err != nil {
		return task{}, fmt.Errorf("cache key: %w", err)
	}
	const mega = 1_000_000
	run := func(ctx context.Context, progress func(done, total int)) (any, error) {
		var onProgress func(cycles, budget uint64)
		if progress != nil {
			onProgress = func(cycles, budget uint64) { progress(int(cycles/mega), int(budget/mega)) }
		}
		release, err := holdGate(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		st, err := core.RunProgramStatsCtx(ctx, rp.cfg, rp.prog, rp.budget, onProgress)
		if err != nil {
			return nil, err
		}
		return ProgramResponse{
			Sprog: prog.Hash(rp.bin),
			Insts: len(rp.prog.Insts),
			Base:  rp.prog.Base,
			Stats: st,
		}, nil
	}
	return task{kind: "program", key: key, begin: &JobProgress{Total: int(rp.budget / mega)}, run: run}, nil
}

// handleRunProgram serves POST /v1/run/program, counting the submission
// once, by format and outcome, at its response.
func (s *Server) handleRunProgram(w http.ResponseWriter, r *http.Request) {
	var req ProgramRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.metrics.programSubs.With("unknown", "invalid").Inc()
		writeBodyError(w, err)
		return
	}
	t, err := programTask(req)
	s.metrics.programSubs.With(req.format(), s.serveTask(w, r, t, err)).Inc()
}

// handleJobEvents streams a job's lifecycle as Server-Sent Events
// (GET /v1/jobs/{id}/events): "progress" events carrying the job view while
// it runs, then exactly one terminal event named after the final status
// (done / failed / cancelled), then the stream closes.  Event payloads omit
// the result body — clients fetch GET /v1/jobs/{id}/result once done.
//
// Every event carries a monotonic per-job id, so a client that reconnects
// with Last-Event-ID never sees the terminal event twice: a reconnect after
// the terminal id yields an immediately-closed, empty stream, while a
// reconnect that missed the terminal event replays it.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, stop, ok := s.jobs.watch(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	defer stop()

	lastID := -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			lastID = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	s.sseActive.Add(1)
	defer s.sseActive.Add(-1)

	send := func(event string, seq int, v JobView) bool {
		v.Result = nil
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", seq, event, b); err != nil {
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}

	// Immediate snapshot, so a subscriber sees state without waiting for
	// the next progress update.
	if view, seq, live := s.jobs.viewSeq(id); live && !terminalJobStatus(view.Status) && seq > lastID {
		if !send("progress", seq, view) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Terminal: emit the final view under its status name,
				// unless the client already received it (Last-Event-ID).
				if final, seq, live := s.jobs.viewSeq(id); live && seq > lastID {
					send(final.Status, seq, final)
				}
				return
			}
			if !terminalJobStatus(ev.View.Status) && !send("progress", ev.Seq, ev.View) {
				return
			}
		}
	}
}

// terminalJobStatus reports whether a wire status is terminal.
func terminalJobStatus(status string) bool {
	return status != JobRunning && status != JobPending
}
