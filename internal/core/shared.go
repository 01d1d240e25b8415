package core

import (
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SharedJob describes one job of a run — the one declaration of a job every
// layer above aliases. A nil Trace records into the engine's Options.Trace.
type SharedJob struct {
	Kernel kernels.Kernel
	Source uint64
	Trace  *trace.Recorder
}

// SharedOutcome is one job's result. Exactly one of the Report, Err, or
// Declined is meaningful: Declined means the run's WA does not fit beside
// the stream buffers; a job declined alone never fits this machine.
type SharedOutcome struct {
	Report
	Err      error
	Declined bool
}

// SharedStats is a run's accounting.
type SharedStats struct {
	// Waves is how many supersteps the run executed.
	Waves int64
	// PageCopies counts topology page copies paid over PCI-E; Servings
	// counts the page runs that consumed a streamed or cached page — a
	// multi-source BFS counts one per lane the page ran, so
	// Servings/PageCopies is what a copy is shared by.
	PageCopies int64
	Servings   int64
	// BytesSaved is the page traffic a multi-source BFS's lanes did not pay
	// one by one: (n-1) x pageSize per page run of n lanes. BytesToGPU is the
	// run's host-to-device traffic (WA + RA + topology), StorageBytes its
	// storage reads.
	BytesSaved   int64
	BytesToGPU   int64
	StorageBytes int64
	// EdgesTraversed sums the edge work; Elapsed is the run's virtual
	// makespan.
	EdgesTraversed int64
	Elapsed        sim.Time
}

// RunShared runs jobs on one simulated machine and returns an outcome per
// job, in job order, with the run's accounting. A roster of one job runs it
// as it is. Several jobs must all be plain BFS (*kernels.BFS, hop-capped or
// not) without a Trace of their own: they run as one multi-source BFS
// (kernels.MultiBFS), a lane per job, whose report splits back into theirs
// (laneReport) — a job whose source is not a vertex fails alone and takes no
// lane. Any other roster is an error that runs nothing. A run that fails
// gives its error to every job and returns it.
func (e *Engine) RunShared(jobs []SharedJob) ([]SharedOutcome, SharedStats, error) {
	switch len(jobs) {
	case 0:
		return nil, SharedStats{}, fmt.Errorf("core: RunShared needs at least one job")
	case 1:
		out, stats, err := e.run(jobs[0])
		return []SharedOutcome{out}, stats, err
	}
	outs := make([]SharedOutcome, len(jobs))
	fail := func(err error) ([]SharedOutcome, SharedStats, error) {
		for i := range outs {
			outs[i] = SharedOutcome{Err: err}
		}
		return outs, SharedStats{}, err
	}
	var idx []int
	var lanes []*kernels.BFS
	var sources []uint64
	for j, job := range jobs {
		bfs, ok := job.Kernel.(*kernels.BFS)
		if !ok || job.Trace != nil {
			return fail(fmt.Errorf("core: a roster of %d jobs runs only plain BFS jobs without a trace of their own; job %d runs %T", len(jobs), j, job.Kernel))
		}
		if outs[j].Err = e.checkSource(job.Source); outs[j].Err != nil {
			continue
		}
		idx, lanes, sources = append(idx, j), append(lanes, bfs), append(sources, job.Source)
	}
	if len(lanes) == 0 {
		return outs, SharedStats{}, nil
	}
	ms := kernels.NewMultiBFS(e.graph, lanes, sources)
	out, stats, err := e.run(SharedJob{Kernel: ms, Source: sources[0]})
	if err != nil {
		return fail(err)
	}
	if out.Err != nil || out.Declined {
		for _, j := range idx {
			outs[j] = out
		}
		return outs, stats, nil
	}
	var total int64 // the lanes' page runs
	for i := range lanes {
		_, ls := ms.Lane(out.State, i)
		total += ls.Pages
	}
	var before int64
	for i, j := range idx {
		st, ls := ms.Lane(out.State, i)
		outs[j] = SharedOutcome{Report: laneReport(&out.Report, st, ls, before, total)}
		before += ls.Pages
	}
	stats.BytesSaved = (total - stats.Servings) * int64(e.graph.Config().PageSize)
	stats.Servings = total
	return outs, stats, nil
}

// laneReport is one lane's part of a multi-source BFS's report: its state,
// levels, edges and updates are its own; Elapsed, the rates and
// ResidentAtStart are the run's; every other additive counter is split among
// the lanes by their page runs, so that the lanes' parts sum to the run's
// (this lane's runs follow before of total). Faults and the per-level
// records stay with the run.
func laneReport(run *Report, st kernels.State, ls kernels.LaneStats, before, total int64) Report {
	part := func(x int64) int64 { // floor(x·c/total) at c = before+Pages, less that at before
		at := func(c int64) int64 { return x/total*c + x%total*c/total }
		return at(before+ls.Pages) - at(before)
	}
	return Report{
		Metrics: Metrics{
			Elapsed:        run.Elapsed,
			Levels:         ls.Levels,
			PagesStreamed:  part(run.PagesStreamed),
			CacheHitRate:   run.CacheHitRate,
			BufferHitRate:  run.BufferHitRate,
			BytesToGPU:     part(run.BytesToGPU),
			StorageBytes:   part(run.StorageBytes),
			TransferTime:   sim.Time(part(int64(run.TransferTime))),
			KernelTime:     sim.Time(part(int64(run.KernelTime))),
			WABytes:        st.WABytes(),
			MTEPS:          trace.MTEPS(ls.Edges, run.Elapsed),
			HostKernelWall: time.Duration(part(int64(run.HostKernelWall))),
			PoolHits:       part(run.PoolHits),
			PoolLoads:      part(run.PoolLoads),
			PoolWaits:      part(run.PoolWaits),
		},
		State:           st,
		CacheHits:       part(run.CacheHits),
		ResidentAtStart: run.ResidentAtStart,
		EdgesTraversed:  ls.Edges,
		Updates:         ls.Updates,
	}
}
