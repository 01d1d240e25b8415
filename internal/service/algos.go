package service

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sort"

	gts "repro"
	"repro/internal/incremental"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// Params carries one algorithm request's inputs. Unset fields take
// per-algorithm defaults (see normalize); fields an algorithm does not use
// are zeroed during normalization so equivalent requests share one cache
// entry.
type Params struct {
	// Source is the start vertex for bfs, sssp, bc, rwr, and ball.
	Source uint64 `json:"source,omitempty"`
	// Damping is PageRank's damping factor (default 0.85).
	Damping float64 `json:"damping,omitempty"`
	// Iterations bounds pagerank and rwr (default 10).
	Iterations int `json:"iterations,omitempty"`
	// K is the core number for kcore (default 3).
	K int `json:"k,omitempty"`
	// Hops is the ball radius for ball (default 2).
	Hops int `json:"hops,omitempty"`
	// Restart is rwr's restart probability (default 0.15).
	Restart float64 `json:"restart,omitempty"`
	// Sketches and MaxHops tune radius (defaults 8 and 256).
	Sketches int `json:"sketches,omitempty"`
	MaxHops  int `json:"maxhops,omitempty"`
}

// algorithm binds a name to its parameter normalization and its kernel,
// and, for the algorithms that retain state for incremental recompute, to
// what they keep and how they re-plan from it. This table is the only place
// that says which algorithms those are: the ones whose delta-expansion beats
// a full run on the clock a caller waits on (EXPERIMENTS.md, incremental).
type algorithm struct {
	// normalize fills defaults and zeroes unused fields, returning the
	// canonical Params that key the result cache, or ErrBadParams for a
	// value the kernel cannot take (checked before any kernel is built).
	normalize func(Params) (Params, error)
	// kernel builds the job's kernel plus a decoder that assembles the
	// public result struct the matching gts.System method returns. The
	// decoder is bound to the kernel instance it is returned with.
	kernel func(g *gts.Graph, p Params) (k gts.Kernel, source uint64, decode func(gts.KernelState, gts.Metrics) any)
	// retain, when set, fills e with what a later delta-expansion needs from a
	// finished run's output; an algorithm without it has no retained state
	// and always runs in full.
	retain func(e *incremental.Entry, output any)
	// replan, set together with retain, plans the delta-expansion of prior
	// across d on g (the plan's kernel, seed count and decoder), or reports
	// why that cannot be exact. prior was retained under the same
	// normalized Params (the store key), so it needs none of its own.
	replan func(g *gts.Graph, prior *incremental.Entry, d incremental.Delta) (plan, string)
}

var algorithms = map[string]algorithm{
	"bfs": {
		normalize: func(p Params) (Params, error) { return Params{Source: p.Source}, nil },
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewDirBFS(g)
			return k, p.Source, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.BFSResult{Metrics: m, Levels: k.Levels(st)}
			}
		},
		retain: func(e *incremental.Entry, output any) {
			e.Kind = incremental.KindBFS
			e.Levels = append([]int16(nil), output.(*gts.BFSResult).Levels...)
		},
		replan: func(g *gts.Graph, prior *incremental.Entry, d incremental.Delta) (plan, string) {
			k, reason := incremental.PlanBFS(g, prior, d)
			if reason != "" {
				return plan{}, reason
			}
			return plan{job: sched.Job{Kernel: k}, seeds: k.Seeds, decode: func(st gts.KernelState, m gts.Metrics) any {
				return &gts.BFSResult{Metrics: m, Levels: k.Levels(st)}
			}}, ""
		},
	},
	"pagerank": {
		normalize: func(p Params) (Params, error) {
			out := Params{Damping: cmp.Or(p.Damping, 0.85), Iterations: cmp.Or(p.Iterations, 10)}
			return out, errors.Join(probability("damping", out.Damping), inRange("iterations", out.Iterations, math.MaxInt32))
		},
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewPageRank(g, p.Damping, p.Iterations)
			return k, 0, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.PageRankResult{Metrics: m, Ranks: k.Ranks(st)}
			}
		},
	},
	"sssp": {
		normalize: func(p Params) (Params, error) { return Params{Source: p.Source}, nil },
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewSSSP(g)
			return k, p.Source, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.SSSPResult{Metrics: m, Dist: k.Distances(st)}
			}
		},
	},
	"cc": {
		normalize: func(Params) (Params, error) { return Params{}, nil },
		kernel: func(g *gts.Graph, _ Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewCC(g)
			return k, 0, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.CCResult{Metrics: m, Labels: k.Components(st)}
			}
		},
		retain: func(e *incremental.Entry, output any) {
			e.Kind = incremental.KindCC
			e.Labels = append([]uint32(nil), output.(*gts.CCResult).Labels...)
		},
		replan: func(g *gts.Graph, prior *incremental.Entry, d incremental.Delta) (plan, string) {
			k, reason := incremental.PlanCC(g, prior, d)
			if reason != "" {
				return plan{}, reason
			}
			return plan{job: sched.Job{Kernel: k}, seeds: k.Seeds, decode: func(st gts.KernelState, m gts.Metrics) any {
				return &gts.CCResult{Metrics: m, Labels: k.Components(st)}
			}}, ""
		},
	},
	"bc": {
		normalize: func(p Params) (Params, error) { return Params{Source: p.Source}, nil },
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewBC(g)
			return k, p.Source, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.BCResult{Metrics: m, Scores: k.Centrality(st, p.Source)}
			}
		},
	},
	"rwr": {
		normalize: func(p Params) (Params, error) {
			out := Params{Source: p.Source, Restart: cmp.Or(p.Restart, 0.15), Iterations: cmp.Or(p.Iterations, 10)}
			return out, errors.Join(probability("restart", out.Restart), inRange("iterations", out.Iterations, math.MaxInt32))
		},
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewRWR(g, p.Restart, p.Iterations)
			return k, p.Source, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.RWRResult{Metrics: m, Scores: k.Scores(st)}
			}
		},
	},
	"degree": {
		normalize: func(Params) (Params, error) { return Params{}, nil },
		kernel: func(g *gts.Graph, _ Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewDegreeDist(g)
			return k, 0, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.DegreeResult{Metrics: m, Degrees: k.Degrees(st), Histogram: k.Histogram(st)}
			}
		},
	},
	"kcore": {
		normalize: func(p Params) (Params, error) {
			out := Params{K: cmp.Or(p.K, 3)}
			return out, inRange("k", out.K, math.MaxInt32)
		},
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewKCore(g, p.K)
			return k, 0, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.KCoreResult{Metrics: m, InCore: k.InCore(st)}
			}
		},
	},
	"radius": {
		normalize: func(p Params) (Params, error) {
			out := Params{Sketches: cmp.Or(p.Sketches, 8), MaxHops: cmp.Or(p.MaxHops, 256)}
			return out, errors.Join(inRange("sketches", out.Sketches, maxSketches), inRange("maxhops", out.MaxHops, math.MaxInt32))
		},
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewRadius(g, p.Sketches, p.MaxHops)
			return k, 0, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.RadiusResult{Metrics: m, Radii: k.Radii(st), EffectiveDiameter: k.EffectiveDiameter(st, 0.9)}
			}
		},
	},
	"ball": {
		normalize: func(p Params) (Params, error) {
			out := Params{Source: p.Source, Hops: cmp.Or(p.Hops, 2)}
			return out, inRange("hops", out.Hops, math.MaxInt16)
		},
		kernel: func(g *gts.Graph, p Params) (gts.Kernel, uint64, func(gts.KernelState, gts.Metrics) any) {
			k := kernels.NewNeighborhood(g, p.Hops)
			return k, p.Source, func(st gts.KernelState, m gts.Metrics) any {
				return &gts.NeighborhoodResult{Metrics: m, Hops: k.Levels(st)}
			}
		},
	},
}

// maxSketches caps radius's state at 2 x 32 4-byte sketches per vertex.
const maxSketches = 32

// inRange checks a count parameter against [1, hi]; hi is what the kernel
// field storing it can hold, or a cap on what it costs.
func inRange(name string, v, hi int) error {
	if v < 1 || v > hi {
		return fmt.Errorf("%w: %s %d is outside [1, %d]", ErrBadParams, name, v, hi)
	}
	return nil
}

// probability checks a probability parameter against (0, 1).
func probability(name string, v float64) error {
	if !(v > 0 && v < 1) {
		return fmt.Errorf("%w: %s %v is outside (0, 1)", ErrBadParams, name, v)
	}
	return nil
}

// Algorithms lists the service's algorithm names, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(algorithms))
	for name := range algorithms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookupAlgo resolves a request's algorithm name.
func lookupAlgo(name string) (algorithm, error) {
	a, ok := algorithms[name]
	if !ok {
		return algorithm{}, fmt.Errorf("%w: %q (have %v)", ErrUnknownAlgo, name, Algorithms())
	}
	return a, nil
}
