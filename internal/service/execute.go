package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	gts "repro"
	"repro/internal/sim"
	"repro/internal/trace"
)

// plan is one resolved execution: the engine job (kernel and source; the
// pipeline adds the recorder), whose finished state the algorithm's table
// entry decodes. The remaining fields are set only for jobs that retain
// state or ask for incremental service (resolve, incremental.go and the
// replan hooks of algos.go).
type plan struct {
	job gts.SharedJob
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

// execute takes one admitted job to a terminal state. Every job, whatever
// its algorithm or graph, goes through the same stages: kernel resolution,
// the run on the graph's System (see run: one job at a time per graph, in
// arrival order), error classification, and accounting. The job finishes in
// one hold of the server's lock (finish): it turns from single-flight leader
// into cached answer at once, so Submit answers every identical request from
// one or the other, and an answered job no longer counts against QueueDepth.
func (s *Server) execute(job *Job) {
	defer job.cancel()
	pl := resolve(job)

	// Request-scoped tracing: the job's spans go to a recorder of its own,
	// which is kept even for failed runs — a timeline that ends mid-fault
	// is the one worth looking at.
	sj := pl.job
	if s.cfg.Trace {
		sj.Trace = trace.NewWithID(job.id)
		if pl.hit {
			sj.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.IncSeed, Page: int64(pl.seeds), Level: -1})
		} else if pl.fallback != "" {
			sj.Trace.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.IncFallback, Page: -1, Level: -1})
		}
	}
	out, start, err := s.run(job, sj)
	wall := time.Since(start)
	var chrome []byte
	if !start.IsZero() {
		s.met.observeRunWall(wall)
		if sj.Trace != nil {
			var buf bytes.Buffer
			if sj.Trace.WriteChrome(&buf) == nil {
				chrome = buf.Bytes()
			}
		}
	}

	if err != nil {
		state := JobFailed
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			s.met.addTimedOut()
			state, err = JobTimedOut, fmt.Errorf("%w after %v", ErrTimeout, time.Since(job.submitted).Round(time.Microsecond))
		} else {
			s.met.addFailed()
			if errors.Is(err, gts.ErrHardwareFault) {
				s.met.addHWFailure()
			}
		}
		s.finish(job, func() { job.trace = chrome; job.fail(err, state) })
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
	s.finish(job, func() { job.trace = chrome; s.answer(job, res, false) })
}

// run runs sj, job's engine job, alone on the System job was admitted
// against, once the job holds its graph's run token: a graph name's jobs,
// whatever version of the graph they run on, run one at a time in the order
// they asked for the token, each on the device page cache the one before it
// left warm. The job is running from the moment it takes the token, which
// run returns as start (zero if the job never ran). A job whose deadline
// passes while it waits never runs; one whose deadline passes mid-run
// returns the context's error at once, and its run goes on, lands its tally
// and releases the token as it ends. A job whose working attributes do not
// fit the device fails with gts.ErrWontFit.
func (s *Server) run(job *Job, sj gts.SharedJob) (out *gts.SharedOutcome, start time.Time, err error) {
	entry, ctx := job.entry, job.ctx
	select {
	case entry.run <- struct{}{}:
	case <-ctx.Done():
		return nil, start, ctx.Err()
	}
	if err := ctx.Err(); err != nil { // the token and the deadline came together
		<-entry.run
		return nil, start, err
	}
	start = time.Now()
	s.met.observeQueueWait(start.Sub(job.submitted))
	job.setRunning()
	done := make(chan gts.SharedOutcome, 1)
	s.running.Add(1)
	go func() {
		defer s.running.Done()
		outs, g, _ := entry.sys.RunShared([]gts.SharedJob{sj}, nil) // a run's error is its job's
		s.met.addRun(g)
		done <- outs[0]
		<-entry.run
	}()
	select {
	case o := <-done:
		if o.Declined {
			return nil, start, gts.ErrWontFit
		}
		return &o, start, o.Err
	case <-ctx.Done():
		return nil, start, ctx.Err()
	}
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
	pl := plan{job: gts.SharedJob{Kernel: job.algo.Kernel(g, p), Source: p.Source}}
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
