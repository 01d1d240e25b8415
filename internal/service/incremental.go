package service

import (
	"encoding/json"

	gts "repro"
	"repro/internal/incremental"
	"repro/internal/sched"
)

// This file is the incremental planner: it resolves a job against the
// graph's retained-state store into a plan (delta-expansion hit, fallback,
// or plain full run) whose capture hook retains fresh state on completion.
// The plan runs through the same pipeline as every other job (execute.go).
// Results are byte-identical to the normal path by the incremental
// package's exactness contract, so they share the same result cache and
// single-flight keys.

// incSupported reports whether algo has a retained-state representation.
func incSupported(algo string) bool {
	return algo == "bfs" || algo == "cc" || algo == "pagerank"
}

// incKey keys retained entries by (algo, normalized params); the epoch is
// carried on the entry, not the key, so a stale entry is found (and
// migrated) rather than orphaned.
func incKey(algo string, p Params) string {
	buf, _ := json.Marshal(p)
	return algo + "?" + string(buf)
}

// planIncremental resolves how to run the job: delta-expansion from a
// retained entry when requested and safe, otherwise a full run that
// captures fresh state.
func planIncremental(entry *graphEntry, g *gts.Graph, cfg gts.Config, a algorithm, req Request) plan {
	p := req.Params
	key := incKey(req.Algo, p)
	fallback := ""
	if req.Incremental {
		if prior, delta, ok := entry.inc.Lookup(key); ok {
			pl, reason := deltaPlan(entry, g, key, req.Algo, p, prior, delta)
			if reason == "" {
				return pl
			}
			fallback = reason
		} else {
			fallback = "no-retained-state"
		}
	}

	// The from-scratch run: the algorithm's own kernel, except that
	// PageRank records its per-iteration trajectory for later patching.
	pl := plan{fallback: fallback}
	var traj func() [][]float32
	if req.Algo == "pagerank" {
		rk := incremental.NewRecordingPageRank(g, p.Damping, p.Iterations)
		pl.job.Kernel = rk
		pl.decode = func(st gts.KernelState, m gts.Metrics) any {
			return &gts.PageRankResult{Metrics: m, Ranks: rk.Ranks(st)}
		}
		traj = func() [][]float32 { return rk.Traj }
	} else {
		pl.job.Kernel, pl.job.Source, pl.decode = a.kernel(g, cfg, p)
	}
	pl.capture = retain(entry, key, req.Algo, p, -1, traj)
	return pl
}

// deltaPlan plans a delta-expansion kernel for one algorithm, or reports
// why it cannot be exact.
func deltaPlan(entry *graphEntry, g *gts.Graph, key, algo string, p Params, prior *incremental.Entry, delta incremental.Delta) (plan, string) {
	pl := plan{job: sched.Job{Source: p.Source}, hit: true, priorFull: prior.FullPages}
	var traj func() [][]float32
	switch algo {
	case "bfs":
		if prior.Source != p.Source {
			return plan{}, "source-mismatch"
		}
		k, reason := incremental.PlanBFS(g, prior, delta)
		if reason != "" {
			return plan{}, reason
		}
		pl.job.Kernel, pl.seeds = k, k.Seeds
		pl.decode = func(st gts.KernelState, m gts.Metrics) any {
			return &gts.BFSResult{Metrics: m, Levels: k.Levels(st)}
		}
	case "cc":
		k, reason := incremental.PlanCC(g, prior, delta)
		if reason != "" {
			return plan{}, reason
		}
		pl.job.Kernel, pl.seeds = k, k.Seeds
		pl.decode = func(st gts.KernelState, m gts.Metrics) any {
			return &gts.CCResult{Metrics: m, Labels: k.Components(st)}
		}
	case "pagerank":
		k, reason := incremental.PlanPageRank(g, prior, delta, p.Damping, p.Iterations)
		if reason != "" {
			return plan{}, reason
		}
		pl.job.Kernel, pl.seeds = k, k.Seeds
		pl.decode = func(st gts.KernelState, m gts.Metrics) any {
			return &gts.PageRankResult{Metrics: m, Ranks: k.Ranks(st)}
		}
		traj = k.Trajectory
	default:
		return plan{}, "unsupported"
	}
	pl.capture = retain(entry, key, algo, p, prior.FullPages, traj)
	return pl, ""
}

// retain returns the capture hook that stores a completed run as the
// graph's retained entry for key, at the epoch the job ran on. fullPages is
// the from-scratch page cost the entry remembers: a delta run inherits its
// prior entry's, a full run (fullPages < 0) records its own. traj supplies
// PageRank's per-iteration trajectory once the run is over.
func retain(entry *graphEntry, key, algo string, p Params, fullPages int64, traj func() [][]float32) func(any, gts.Metrics) {
	return func(output any, m gts.Metrics) {
		e := &incremental.Entry{Epoch: entry.epoch, FullPages: fullPages}
		if fullPages < 0 {
			e.FullPages = m.PagesStreamed
		}
		switch algo {
		case "bfs":
			e.Kind, e.Source = incremental.KindBFS, p.Source
			e.Levels = append([]int16(nil), output.(*gts.BFSResult).Levels...)
		case "cc":
			e.Kind = incremental.KindCC
			e.Labels = append([]uint32(nil), output.(*gts.CCResult).Labels...)
		case "pagerank":
			e.Kind, e.Traj = incremental.KindPageRank, traj()
			e.Damping, e.Iterations = p.Damping, p.Iterations
		}
		entry.inc.Capture(key, e)
	}
}
