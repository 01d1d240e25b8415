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
// entry decodes. The remaining fields are set only for retaining requests
// (resolve, incremental.go and the replans of algos.go).
type plan struct {
	job gts.SharedJob
	// retain marks a run that becomes its request's prior when it finishes.
	retain bool
	// hit marks a delta-expansion run; seeds is its seed count (for the
	// incseed span) and priorFull its prior's from-scratch page cost.
	hit       bool
	seeds     int
	priorFull int64
	// fallback carries the reason a retaining request could not be served
	// from its prior ("" for every other request, and for a hit).
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
	pl := s.resolve(job)

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

	// Incremental accounting: a hit saved (from-scratch pages - its pages); a
	// retaining request's fallback counts against it. A run's
	// pages are those it touched, streamed or found in the device cache, so
	// the count does not depend on what the device held warm.
	m := out.Metrics
	pages := m.PagesStreamed + out.CacheHits
	if pl.hit {
		s.met.addIncHit(pl.priorFull - pages)
		pages = pl.priorFull
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
	s.met.addFaults(m.Faults)
	s.finish(job, func() {
		job.trace, job.fullPages = chrome, pages
		s.answer(job, res, false)
		// A retaining run becomes its request's prior unless that prior ran on a later epoch.
		if old := s.priors[job.prior]; pl.retain && (old == nil || old.epoch <= job.epoch) {
			s.priors[job.prior] = job
		}
	})
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

// resolve picks the kernel a job runs. A retaining request — an algorithm
// that retains state (replans), on a graph that retains (Server.retains) — goes
// through the incremental planner: it is a delta-expansion hit or a full run
// counted as one fallback. Everything else gets the algorithm's own kernel
// and counts neither.
func (s *Server) resolve(job *Job) plan {
	p, g := job.req.Params, job.entry.sys.Graph()
	if r, ok := replans[job.req.Algo]; ok && s.retains(job.entry) {
		return s.planIncremental(job, g, r)
	}
	return plan{job: gts.SharedJob{Kernel: job.algo.Kernel(g, p), Source: p.Source}}
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
