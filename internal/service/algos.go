package service

import (
	gts "repro"
	"repro/internal/incremental"
)

// Params carries one algorithm request's inputs (gts.Params: the algorithm
// table normalizes them, and the normalized form keys the result cache).
type Params = gts.Params

// replan plans the delta-expansion of a prior run's output across ops on g
// (its kernel and seed count), or reports why that cannot be exact. The
// prior answered the same normalized Params (its prior key), so it needs
// none of its own; its output is served, and never written.
type replan func(g *gts.Graph, prior any, ops []gts.EdgeOp) (k gts.Kernel, seeds int, reason string)

// replans is the only place that says which algorithms retain state for
// incremental recompute: the ones whose delta-expansion beats a full run on
// the clock a caller waits on (EXPERIMENTS.md, incremental). The re-planned
// kernel decodes through the algorithm's own table entry.
var replans = map[string]replan{
	"bfs": func(g *gts.Graph, prior any, ops []gts.EdgeOp) (gts.Kernel, int, string) {
		k, reason := incremental.PlanBFS(g, prior.(*gts.BFSResult).Levels, ops)
		if reason != "" {
			return nil, 0, reason
		}
		return k, k.Seeds, ""
	},
	"cc": func(g *gts.Graph, prior any, ops []gts.EdgeOp) (gts.Kernel, int, string) {
		k, reason := incremental.PlanCC(g, prior.(*gts.CCResult).Labels, ops)
		if reason != "" {
			return nil, 0, reason
		}
		return k, k.Seeds, ""
	},
}
