package experiments

import (
	"fmt"

	gts "repro"
	"repro/internal/baselines/cpu"
	"repro/internal/baselines/pregel"
	"repro/internal/baselines/xstream"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// costmodel reproduces the paper's §7.5 back-of-envelope checks: the Eq. 1
// analytic prediction against the simulation for PageRank, plus the naive
// topology/c2 arithmetic the paper quotes (e.g. 114 GB x 10 / 6 GB/s).
func (r *Runner) costmodel() (*Table, error) {
	t := &Table{
		ID:     "costmodel",
		Title:  "Analytic cost model vs simulation (paper Eq. 1 and the 7.5 checks)",
		Header: []string{"data", "algo", "topology", "naive t/c2 x iters", "Eq.1 predicted", "simulated", "sim/pred"},
	}
	pcie := hw.PCIe3x16()
	for _, ds := range []string{"RMAT27", "RMAT28", "RMAT29", "RMAT30"} {
		g, err := r.pagesOf(ds)
		if err != nil {
			return nil, err
		}
		cfg := r.gtsConfig(ds)
		cfg.GPUs = 1
		cfg.CacheBytes = gts.CacheDisabled
		m, err := r.gtsRun(ds, "PageRank", cfg)
		if err != nil {
			return nil, err
		}
		pageSize := int64(g.Config().PageSize)
		in := costmodel.Inputs{
			WABytes: m.WABytes,
			RABytes: int64(g.NumVertices()) * 4,
			SPBytes: int64(g.NumSP()) * pageSize,
			LPBytes: int64(g.NumLP()) * pageSize,
			NumSP:   int64(g.NumSP()),
			NumLP:   int64(g.NumLP()),
			GPUs:    1,
			// The launch overhead scales with the hardware, like the
			// simulation's (hw.MachineSpec.Scale).
			CallOverhead: 8 * sim.Microsecond / sim.Time(r.hwFactor(ds)),
		}
		iters := int64(r.opts.PRIterations)
		predicted := sim.Time(int64(costmodel.PageRankLike(in, pcie)) * iters)
		naive := sim.Time(int64(sim.ByteTime(g.TopologyBytes(), pcie.StreamRate)) * iters)
		t.Rows = append(t.Rows, []string{
			ds, "PageRank",
			fmtBytes(g.TopologyBytes()),
			fmtTime(naive),
			fmtTime(predicted),
			fmtTime(m.Elapsed),
			fmt.Sprintf("%.2f", m.Elapsed.Seconds()/predicted.Seconds()),
		})
	}
	// Eq. 2 check: feed a BFS run's measured per-level page sets back into
	// the analytic model and compare.
	for _, ds := range []string{"RMAT27", "RMAT29"} {
		g, err := r.pagesOf(ds)
		if err != nil {
			return nil, err
		}
		cfg := r.gtsConfig(ds)
		cfg.GPUs = 1
		cfg.CacheBytes = gts.CacheDisabled
		m, err := r.gtsBFSWithLevels(ds, cfg)
		if err != nil {
			return nil, err
		}
		var levels []costmodel.LevelInputs
		for i := range m.LevelPages {
			levels = append(levels, costmodel.LevelInputs{
				SPBytes: m.LevelBytes[i],
				NumSP:   m.LevelPages[i],
			})
		}
		call := 8 * sim.Microsecond / sim.Time(r.hwFactor(ds))
		predicted := costmodel.BFSLike(m.WABytes, levels, 1, 1, 0, call, pcie)
		naive := sim.ByteTime(m.BytesToGPU, pcie.StreamRate)
		t.Rows = append(t.Rows, []string{
			ds, "BFS",
			fmtBytes(g.TopologyBytes()),
			fmtTime(naive),
			fmtTime(predicted),
			fmtTime(m.Elapsed),
			fmt.Sprintf("%.2f", m.Elapsed.Seconds()/predicted.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"paper's check: measured 153s vs 114GBx10/6GB/s = 190s for RMAT30 (ratio 0.81); simulated/predicted landing near 1 reproduces that arithmetic",
		"the model hides kernel time behind streaming (Eq. 1 keeps only the final page's kernel), so compute-bound runs land above 1",
		"BFS rows evaluate Eq. 2 over the run's own per-level page sets (d_skew=1, r_hit=0)")
	return t, nil
}

// xstream reproduces the §8 discussion: GTS's hybrid page-level access
// versus X-Stream's edge-centric full-sweep streaming, on a high-diameter
// web graph and a low-diameter social graph.
func (r *Runner) xstream() (*Table, error) {
	t := &Table{
		ID:     "xstream",
		Title:  "GTS page streaming vs X-Stream/GraphChi edge streaming (paper 8)",
		Header: []string{"data", "algo", "GraphChi (2 SSDs)", "X-Stream (mem)", "X-Stream (2 SSDs)", "GTS", "GTS speedup"},
	}
	for _, ds := range []string{"RMAT27", "YahooWeb"} {
		factor := r.factor(ds)
		g, err := r.csrOf(ds)
		if err != nil {
			return nil, err
		}
		rev, err := r.revOf(ds)
		if err != nil {
			return nil, err
		}
		ws := cpu.Paper().Scale(factor)
		inMem := xstream.New(ws)
		ooc := xstream.NewOutOfCore(ws, 5e9) // two PCI-E SSDs
		chi := xstream.NewGraphChi(ws, 5e9, 8)
		for _, algo := range []string{"BFS", "PageRank"} {
			row := []string{ds, algo}
			var chiT, memT, oocT sim.Time
			if algo == "BFS" {
				c, err := chi.BFS(g, rev, 0)
				if err != nil {
					return nil, err
				}
				a, err := inMem.BFS(g, rev, 0)
				if err != nil {
					return nil, err
				}
				b, err := ooc.BFS(g, rev, 0)
				if err != nil {
					return nil, err
				}
				chiT, memT, oocT = c.Elapsed, a.Elapsed, b.Elapsed
			} else {
				c, err := chi.PageRank(g, rev, 0.85, r.opts.PRIterations)
				if err != nil {
					return nil, err
				}
				a, err := inMem.PageRank(g, rev, 0.85, r.opts.PRIterations)
				if err != nil {
					return nil, err
				}
				b, err := ooc.PageRank(g, rev, 0.85, r.opts.PRIterations)
				if err != nil {
					return nil, err
				}
				chiT, memT, oocT = c.Elapsed, a.Elapsed, b.Elapsed
			}
			m, err := r.gtsRun(ds, algo, r.gtsConfig(ds))
			if err != nil {
				return nil, err
			}
			row = append(row,
				fmtTime(extrapolate(chiT, factor)),
				fmtTime(extrapolate(memT, factor)),
				fmtTime(extrapolate(oocT, factor)),
				fmtTime(extrapolate(m.Elapsed, factor)),
				fmt.Sprintf("%.1fx", oocT.Seconds()/m.Elapsed.Seconds()))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: X-Stream's full edge sweep per level is catastrophic on the high-diameter web graph's BFS; GTS streams only frontier pages",
		"GraphChi trails X-Stream (paper 8): shards load fully before compute and I/O never overlaps computation")
	return t, nil
}

// uncombinedBFS strips the Pregel BFS program's combiner.
type uncombinedBFS struct{ pregel.BFSProgram }

// Combine disables combining.
func (uncombinedBFS) Combine(a, b int16) (int16, bool) { return a, false }

// ablations quantifies three design choices DESIGN.md calls out: the GPU
// thermal model behind the paper's RMAT32 observation (§7.2), Pregel's
// sender-side combiner, and Ligra+'s byte-delta compression.
func (r *Runner) ablations() (*Table, error) {
	t := &Table{
		ID:     "ablations",
		Title:  "Design-choice ablations",
		Header: []string{"ablation", "data", "baseline", "variant", "effect"},
	}

	// 1. Thermal throttling: the paper attributes RMAT32's superlinear
	// PageRank time partly to GPU down-clocking under sustained load.
	{
		const ds = "RMAT32"
		g, err := r.pagesOf(ds)
		if err != nil {
			return nil, err
		}
		factor := r.hwFactor(ds)
		run := func(throttle bool) (sim.Time, error) {
			spec := hw.Workstation(2, 2).Scale(factor)
			if throttle {
				for i := range spec.GPUs {
					spec.GPUs[i].ThermalLimit = 5 * sim.Millisecond
					spec.GPUs[i].ThermalFactor = 0.5
				}
			}
			eng, err := core.New(spec, g, core.Options{Strategy: core.StrategyS, Streams: 16})
			if err != nil {
				return 0, err
			}
			rep, err := eng.RunJob(core.SharedJob{Kernel: kernels.NewPageRank(g, 0.85, r.opts.PRIterations)})
			if err != nil {
				return 0, err
			}
			return rep.Elapsed, nil
		}
		cool, err := run(false)
		if err != nil {
			return nil, err
		}
		hot, err := run(true)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			"GPU down-clocking", ds,
			fmtTime(extrapolate(cool, r.factor(ds))),
			fmtTime(extrapolate(hot, r.factor(ds))),
			fmt.Sprintf("+%.0f%%", 100*(hot.Seconds()/cool.Seconds()-1)),
		})
	}

	// 2. Pregel combiner: message volume and time without sender-side
	// combining.
	{
		const ds = "RMAT28"
		g, err := r.csrOf(ds)
		if err != nil {
			return nil, err
		}
		eng, err := pregel.New(r.scaledCluster(ds), pregel.Giraph())
		if err != nil {
			return nil, err
		}
		with, err := pregel.Run(eng, g, pregel.BFSProgram{Source: 0})
		if err != nil {
			return nil, err
		}
		without, err := pregel.Run(eng, g, uncombinedBFS{pregel.BFSProgram{Source: 0}})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			"Pregel combiner (Giraph BFS)", ds,
			fmtTime(extrapolate(with.Elapsed, r.factor(ds))),
			fmtTime(extrapolate(without.Elapsed, r.factor(ds))),
			fmt.Sprintf("+%.0f%% time without it", 100*(without.Elapsed.Seconds()/with.Elapsed.Seconds()-1)),
		})
	}

	// 3. Ligra+ compression: resident footprint vs plain Ligra.
	for _, ds := range []string{"Twitter", "RMAT28"} {
		g, err := r.csrOf(ds)
		if err != nil {
			return nil, err
		}
		rev, err := r.revOf(ds)
		if err != nil {
			return nil, err
		}
		ws := cpu.Paper()
		plain := cpu.NewLigra(ws).FootprintBytes(g, rev)
		comp := cpu.NewLigraPlus(ws).FootprintBytes(g, rev)
		t.Rows = append(t.Rows, []string{
			"Ligra+ byte-delta compression", ds,
			fmtBytes(plain), fmtBytes(comp),
			fmt.Sprintf("-%.0f%% memory", 100*(1-float64(comp)/float64(plain))),
		})
	}
	t.Notes = append(t.Notes,
		"thermal model: sustained kernel load down-clocks the GPUs to 50% — the paper's explanation for RMAT32 PageRank exceeding linear scaling (7.2); the streaming overlap hides much of the slowdown, so the end-to-end effect is smaller than the clock drop",
		"combiner and compression ablations quantify why those mechanisms exist in the respective baselines")
	return t, nil
}
