package experiments

import (
	"fmt"

	gts "repro"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// pagesOf builds (and caches) the slotted-page store for a dataset, using
// the paper's page configuration for it scaled by the runner's shrink.
func (r *Runner) pagesOf(name string) (*slottedpage.Graph, error) {
	if g, ok := r.pages[name]; ok {
		return g, nil
	}
	raw, err := r.csrOf(name)
	if err != nil {
		return nil, err
	}
	g, err := slottedpage.Build(raw, gts.PageConfigFor(name, r.opts.Shrink))
	if err != nil {
		return nil, err
	}
	r.pages[name] = g
	return g, nil
}

// gtsConfig mirrors the paper's per-dataset setup: RMAT31 and RMAT32
// stream from two SSDs under Strategy-S with a 20% main-memory buffer
// (§7.2); every other dataset runs in-memory under Strategy-P. The
// workstation has two GPUs, scaled to the dataset's factor.
func (r *Runner) gtsConfig(name string) gts.Config {
	cfg := gts.Config{
		GPUs:        2,
		Streams:     16,
		ScaleFactor: r.hwFactor(name),
	}
	if name == "RMAT31" || name == "RMAT32" {
		cfg.Storage = gts.SSDs
		cfg.Devices = 2
		cfg.Strategy = gts.StrategyS
	}
	return cfg
}

// gtsRun executes one GTS algorithm on a dataset under cfg, returning the
// run metrics. algo is "BFS", "PageRank", "SSSP", "CC" or "BC".
func (r *Runner) gtsRun(name, algo string, cfg gts.Config) (gts.Metrics, error) {
	g, err := r.pagesOf(name)
	if err != nil {
		return gts.Metrics{}, err
	}
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		return gts.Metrics{}, err
	}
	switch algo {
	case "BFS":
		// The paper's figures time the paper's kernel, not System.BFS's
		// direction-optimizing one.
		_, m, err := sys.RunKernel(kernels.NewBFS(g), 0)
		return m, err
	case "PageRank":
		res, err := sys.PageRank(0.85, r.opts.PRIterations)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	case "SSSP":
		res, err := sys.SSSP(0)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	case "CC":
		res, err := sys.CC()
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	case "BC":
		res, err := sys.BC(0)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}
	return gts.Metrics{}, fmt.Errorf("experiments: unknown algorithm %q", algo)
}

// gtsTraced runs with a trace recorder attached and returns it.
func (r *Runner) gtsTraced(name, algo string) (*trace.Recorder, gts.Metrics, error) {
	cfg := r.gtsConfig(name)
	cfg.GPUs = 1
	rec := trace.New()
	cfg.Trace = rec
	m, err := r.gtsRun(name, algo, cfg)
	return rec, m, err
}

// hwFactor is the capacity down-scaling applied to the GTS machine for a
// dataset. It matches the data scale factor, but is capped so the scaled
// device memory still holds the 16 streaming buffers: page sizes floor at
// 4 KiB, so at extreme shrinks the fixed buffer footprint would otherwise
// dwarf a fully scaled GPU (a small-scale artifact, not a property of the
// system).
func (r *Runner) hwFactor(name string) int64 {
	f := r.factor(name)
	pageSize := int64(gts.PageConfigFor(name, r.opts.Shrink).PageSize)
	minDevice := 16 * 3 * pageSize * 4
	if maxF := hw.TitanX().DeviceMemory / minDevice; f > maxF {
		f = maxF
	}
	if f < 1 {
		f = 1
	}
	return f
}

// gtsBFSWithLevels runs BFS and returns the metrics including per-level
// streaming stats (for the Eq. 2 cross-check).
func (r *Runner) gtsBFSWithLevels(name string, cfg gts.Config) (gts.Metrics, error) {
	return r.gtsRun(name, "BFS", cfg)
}
