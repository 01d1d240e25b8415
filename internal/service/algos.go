package service

import (
	gts "repro"
	"repro/internal/incremental"
)

// Params carries one algorithm request's inputs (gts.Params: the algorithm
// table normalizes them, and the normalized form keys the result cache).
type Params = gts.Params

// retainer binds an algorithm that retains state for incremental recompute
// to what it keeps and how it re-plans from it. The retainers table is the
// only place that says which algorithms those are: the ones whose
// delta-expansion beats a full run on the clock a caller waits on
// (EXPERIMENTS.md, incremental). The re-planned kernel decodes through the
// algorithm's own table entry.
type retainer struct {
	// retain fills e with what a later delta-expansion needs from a finished
	// run's output, keeping its slices: a served output is never written.
	retain func(e *incremental.Entry, output any)
	// replan plans the delta-expansion of prior across d on g (its kernel and
	// seed count), or reports why that cannot be exact. prior was retained
	// under the same normalized Params (the store key), so it needs none of
	// its own.
	replan func(g *gts.Graph, prior *incremental.Entry, d incremental.Delta) (k gts.Kernel, seeds int, reason string)
}

var retainers = map[string]retainer{
	"bfs": {
		retain: func(e *incremental.Entry, output any) {
			e.Kind = incremental.KindBFS
			e.Levels = output.(*gts.BFSResult).Levels
		},
		replan: func(g *gts.Graph, prior *incremental.Entry, d incremental.Delta) (gts.Kernel, int, string) {
			k, reason := incremental.PlanBFS(g, prior, d)
			if reason != "" {
				return nil, 0, reason
			}
			return k, k.Seeds, ""
		},
	},
	"cc": {
		retain: func(e *incremental.Entry, output any) {
			e.Kind = incremental.KindCC
			e.Labels = output.(*gts.CCResult).Labels
		},
		replan: func(g *gts.Graph, prior *incremental.Entry, d incremental.Delta) (gts.Kernel, int, string) {
			k, reason := incremental.PlanCC(g, prior, d)
			if reason != "" {
				return nil, 0, reason
			}
			return k, k.Seeds, ""
		},
	},
}
