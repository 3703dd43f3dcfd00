package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"specrun/internal/core"
	"specrun/internal/difftest"
	"specrun/internal/leak"
	"specrun/internal/sweep"
)

// FuzzRequest is the body of POST /v1/run/fuzz (and the Fuzz arm of
// POST /v1/jobs): a differential fuzzing campaign specification plus the
// execution-only worker count.  An empty body runs the default campaign
// (1000 seeds, quick matrix).
type FuzzRequest struct {
	difftest.CampaignSpec
	Workers int `json:"workers,omitempty"` // worker goroutines (0 = GOMAXPROCS); never part of the cache key
}

// resolve applies the campaign rule set every entry point shares
// (difftest.CampaignSpec.Resolve), then the server's upper bounds, so a
// hostile document cannot request unbounded simulation.
func (r FuzzRequest) resolve() (difftest.CampaignSpec, error) {
	spec, _, err := r.CampaignSpec.Resolve()
	switch {
	case err != nil:
		return spec, err
	case spec.Seeds > 1<<16:
		return spec, fmt.Errorf("fuzz: seeds %d out of range (1..%d)", spec.Seeds, 1<<16)
	case spec.Len > 1<<12:
		return spec, fmt.Errorf("fuzz: len %d out of range (1..%d)", spec.Len, 1<<12)
	}
	return spec, nil
}

// runCampaign dispatches the spec to its engine: the microarchitectural
// leak oracle for Leaks specs, the architectural differential oracle
// otherwise.  Both reports are deterministic and Encode the same way, so
// the caching and job plumbing stay engine-agnostic.
func runCampaign(ctx context.Context, spec difftest.CampaignSpec, opt sweep.Options) (any, int, error) {
	if spec.Leaks {
		rep, err := leak.Run(ctx, spec, opt)
		return rep, rep.Configs, err
	}
	rep, err := difftest.Run(ctx, spec, opt)
	return rep, rep.Configs, err
}

// fuzzTask builds the task for a campaign.  Reports are deterministic
// functions of their spec, so they cache content-addressed exactly like the
// figure drivers; the worker count never reaches the key.  Progress counts
// seeds.
func fuzzTask(req FuzzRequest) (task, error) {
	spec, err := req.resolve()
	if err != nil {
		return task{}, err
	}
	key, err := core.HashKey("fuzz", spec)
	if err != nil {
		return task{}, fmt.Errorf("cache key: %w", err)
	}
	return task{kind: "fuzz", key: key, run: func(ctx context.Context, progress func(done, total int)) (any, error) {
		rep, configs, err := runCampaign(ctx, spec, sweep.Options{Workers: req.Workers, OnProgress: progress})
		// A cancelled campaign still carries the findings of the seeds it
		// ran: the job keeps them as a partial report.
		if err != nil && (configs == 0 || !errors.Is(err, context.Canceled)) {
			return nil, err
		}
		return rep, err
	}}, nil
}

// handleFuzz serves POST /v1/run/fuzz.
func (s *Server) handleFuzz(w http.ResponseWriter, r *http.Request) {
	var req FuzzRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeBodyError(w, err)
		return
	}
	t, err := fuzzTask(req)
	s.serveTask(w, r, t, err)
}
