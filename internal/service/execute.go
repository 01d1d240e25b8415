package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	gts "repro"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// plan is one resolved execution: the scheduler job (kernel and source; the
// pipeline adds the recorder), whose finished state the algorithm's table
// entry decodes. The remaining fields are set only for jobs that retain
// state or ask for incremental service (resolve, incremental.go and the
// replan hooks of algos.go).
type plan struct {
	job sched.Job
	// capture, when non-nil, retains the completed run (its decoded output
	// and metrics) for later incremental requests.
	capture func(output any, m gts.Metrics)
	// hit marks a delta-expansion run; seeds is its seed count (for the
	// incseed span) and priorFull the retained from-scratch page cost.
	hit       bool
	seeds     int
	priorFull int64
	// fallback carries the reason an incremental request could not be
	// served from retained state ("" when not requested or when hit).
	fallback string
}

// execute takes one dequeued job to a terminal state. Every job, whatever
// its algorithm or graph, goes through the same stages: the deadline check,
// kernel resolution, the run on the graph's wave-group scheduler, error
// classification, and accounting. The result goes into the cache before the
// deferred clearInflight drops the job from the single-flight table, which is
// what lets Submit answer every identical request from one or the other.
func (s *Server) execute(job *Job) {
	defer job.cancel()
	defer s.clearInflight(job)
	s.met.observeQueueWait(time.Since(job.submitted))
	if job.ctx.Err() != nil {
		s.met.addTimedOut()
		job.fail(fmt.Errorf("%w (queued %v)", ErrTimeout, time.Since(job.submitted).Round(time.Microsecond)), JobTimedOut)
		return
	}

	entry := job.entry
	pl := resolve(job)

	// Request-scoped tracing: the job's spans go to a recorder of its own,
	// which is stored even for failed runs — a timeline that ends mid-fault
	// is the one worth looking at.
	sj := pl.job
	if s.traces != nil {
		sj.Trace = trace.NewWithID(job.id)
		if pl.hit {
			sj.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.IncSeed, Page: int64(pl.seeds), Level: -1})
		} else if pl.fallback != "" {
			sj.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.IncFallback, Page: -1, Level: -1})
		}
	}
	job.setRunning()
	s.met.runStarted()
	start := time.Now()
	out, err := entry.sched.Run(job.ctx, entry.sys, sj)
	wall := time.Since(start)
	s.met.runFinished()
	s.met.observeRunWall(wall)
	if sj.Trace != nil {
		s.traces.put(job.id, sj.Trace)
	}

	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.met.addTimedOut()
			job.fail(fmt.Errorf("%w (in wave group)", ErrTimeout), JobTimedOut)
			return
		}
		s.met.addFailed()
		if errors.Is(err, gts.ErrHardwareFault) {
			s.met.addHWFailure()
		}
		job.fail(err, JobFailed)
		return
	}

	// Incremental accounting: a hit saved (from-scratch pages - streamed
	// pages); a fallback on an explicit incremental request counts against
	// it.
	m := out.Metrics
	if pl.hit {
		saved := pl.priorFull - m.PagesStreamed
		s.met.addIncHit(saved)
	} else if pl.fallback != "" {
		s.met.addIncFallback()
	}
	res := &Result{
		Graph:   job.req.Graph,
		Algo:    job.req.Algo,
		Params:  job.req.Params,
		Metrics: m,
		Output:  job.algo.Decode(sj.Kernel, out.State, job.req.Params, m),
		Wall:    wall,
	}
	if pl.capture != nil {
		pl.capture(res.Output, m)
	}
	s.met.addFaults(m.Faults)
	s.cache.put(job.key, res)
	s.answer(job, res, false)
}

// resolve picks the kernel a job runs. An algorithm that retains state, on a
// graph with a retained-state store, goes through the incremental planner: it
// may substitute a delta-expansion kernel seeded from retained state, and
// otherwise runs the full kernel with a capture hook, so fresh state is
// retained either way. Everything else gets the algorithm's own kernel, and
// an "incremental": true request among it is a fallback like any other.
func resolve(job *Job) plan {
	entry, p, g := job.entry, job.req.Params, job.entry.sys.Graph()
	r, retains := retainers[job.req.Algo]
	var reason string
	switch {
	case !retains:
		reason = "unsupported"
	case entry.inc == nil:
		reason = "not-retained"
	case entry.sys.Config().GPUs > 1:
		// Multi-GPU replicas merge state in ways the delta planners do not
		// model: refuse, and retain nothing.
		reason = "multi-gpu"
	default:
		return planIncremental(entry, g, job, r)
	}
	pl := plan{job: sched.Job{Kernel: job.algo.Kernel(g, p), Source: p.Source}}
	if job.req.Incremental {
		pl.fallback = reason
	}
	return pl
}

// answer records a successfully answered job in the metrics and then
// releases its waiters — in that order, so a caller that reads Stats right
// after Run returns finds the job counted. Cached answers carry no compute
// cost of their own.
func (s *Server) answer(job *Job, res *Result, cached bool) {
	var wall time.Duration
	var virtual sim.Time
	if !cached {
		wall, virtual = res.Wall, res.Metrics.Elapsed
	}
	now := time.Now()
	s.met.jobCompleted(job.req.Algo, now.Sub(job.submitted), wall, virtual)
	job.complete(res, cached, now)
}
