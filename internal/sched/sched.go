// Package sched is the per-graph topology stream scheduler: it coalesces
// concurrently submitted jobs against one graph into shared wave groups
// (gts.System.RunShared) so each topology page streams to the GPUs once per
// superstep and serves every member's kernels.
//
// One Scheduler fronts one graph (the service layer keeps one per
// graphEntry, and runs every job through it; a job with no company is a
// group of one). Submissions batch for a short hold window, then launch as a
// wave group on a System claimed from the pool; jobs that arrive while a
// group is running join it at the next wave boundary through the group's
// admit callback, so a busy scheduler keeps one group open continuously
// instead of queueing convoy-style behind it. Members the shared machine
// cannot fit (their WA would not fit even after dropping the page cache)
// fall back to a private single-member run so they still honor per-job
// fault plans and trace recorders.
//
// Results do not depend on a job's company by construction — the engine
// precomputes each member's functional kernel work against the member's own
// state and only shares the simulated data movement (see the commentary in
// internal/core/group.go).
package sched

import (
	"context"
	"errors"
	"sync"
	"time"

	gts "repro"
	"repro/internal/trace"
)

// ErrClosed reports a submission to a scheduler that has shut down.
var ErrClosed = errors.New("sched: scheduler closed")

// Job is one algorithm execution to coalesce into a wave group.
type Job struct {
	Kernel gts.Kernel
	Source uint64
	// Faults overrides the system's fault plan for this job (nil inherits).
	Faults *gts.FaultPlan
	// Trace, when non-nil, receives this job's spans (wave, copy, kernel).
	Trace *trace.Recorder
}

// Result is a completed job's output.
type Result struct {
	State   gts.KernelState
	Metrics gts.Metrics
	// Shared reports whether the job ran inside a wave group (false: it was
	// declined by the shared machine and ran as a private fallback).
	Shared bool
}

// Config tunes a Scheduler.
type Config struct {
	// MaxGroup caps members per wave group. Default 64.
	MaxGroup int
	// Hold is the batch window: after the first pending job arrives, the
	// dispatcher waits this long for companions before launching a group.
	// Jobs arriving during a running group still join it at wave
	// boundaries regardless of Hold. Default 2ms; negative disables.
	Hold time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxGroup <= 0 {
		c.MaxGroup = 64
	}
	if c.Hold == 0 {
		c.Hold = 2 * time.Millisecond
	}
	if c.Hold < 0 {
		c.Hold = 0
	}
	return c
}

// Stats counts a scheduler's lifetime activity. All byte figures come from
// the engine's group accounting.
type Stats struct {
	// Groups is how many wave groups ran; GroupJobs how many jobs they
	// served; SoloRuns how many declined jobs fell back to private runs.
	Groups    int64
	GroupJobs int64
	SoloRuns  int64
	// Waves, PageCopies, SharedPageCopies, BytesSaved and BytesToGPU
	// aggregate the groups' SharedStats.
	Waves            int64
	PageCopies       int64
	SharedPageCopies int64
	BytesSaved       int64
	BytesToGPU       int64
	// Fences counts mutation boundaries declared via Fence.
	Fences int64
}

// AmortizedBytesPerJob is the mean host-to-device traffic per group-served
// job across the scheduler's lifetime.
func (s Stats) AmortizedBytesPerJob() float64 {
	if s.GroupJobs == 0 {
		return 0
	}
	return float64(s.BytesToGPU) / float64(s.GroupJobs)
}

// pending is a submitted job waiting for (or riding in) a group.
type pending struct {
	job  Job
	gen  uint64 // fence generation at submission
	done chan struct{}
	res  Result
	err  error
}

// Scheduler coalesces jobs for one graph into wave groups over a
// SystemPool.
type Scheduler struct {
	pool *gts.SystemPool
	cfg  Config

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pending
	gen    uint64 // current fence generation; groups never mix generations
	closed bool
	stats  Stats

	dispatcher sync.WaitGroup // the dispatcher goroutine
	solo       sync.WaitGroup // in-flight declined-job fallbacks
}

// New starts a scheduler over pool. Close must be called to stop it.
func New(pool *gts.SystemPool, cfg Config) *Scheduler {
	s := &Scheduler{pool: pool, cfg: cfg.withDefaults()}
	s.cond = sync.NewCond(&s.mu)
	s.dispatcher.Add(1)
	go func() {
		defer s.dispatcher.Done()
		s.dispatch()
	}()
	return s
}

// Run submits job and blocks until it completes or ctx is done. A context
// expiry abandons only the wait: the group keeps running its remaining
// members and the abandoned job's result is discarded.
func (s *Scheduler) Run(ctx context.Context, job Job) (Result, error) {
	if job.Kernel == nil {
		return Result{}, errors.New("sched: job has no kernel")
	}
	p := &pending{job: job, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Result{}, ErrClosed
	}
	p.gen = s.gen
	s.queue = append(s.queue, p)
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case <-p.done:
		return p.res, p.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Stats returns a snapshot of lifetime counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close drains: queued and in-flight jobs finish, further Run calls fail
// with ErrClosed. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.dispatcher.Wait()
		s.solo.Wait()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.dispatcher.Wait()
	s.solo.Wait()
}

// dispatch is the scheduler's single control loop. While a group runs, new
// arrivals are admitted into it at wave boundaries, so back-to-back load is
// served by one continuously open group per pooled System.
func (s *Scheduler) dispatch() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		closed := s.closed
		s.mu.Unlock()

		// Batch window: give concurrent submitters a moment to pile on so
		// the group forms as large as possible. Skipped when draining.
		if s.cfg.Hold > 0 && !closed {
			time.Sleep(s.cfg.Hold)
		}
		s.runGroup()
	}
}

// Fence declares a mutation boundary: jobs submitted after the fence never
// share a wave group with jobs submitted before it, so a group formed over
// one graph version is never joined by a job expecting the next version.
// Queued and running groups are unaffected — they finish against the
// snapshot they formed on.
func (s *Scheduler) Fence() {
	s.mu.Lock()
	s.gen++
	s.stats.Fences++
	s.mu.Unlock()
}

// takeHead removes up to n queued jobs of the head job's generation and
// reports that generation. A fence in the middle of the queue cuts the
// batch short; the later-generation jobs form their own group next round.
func (s *Scheduler) takeHead(n int) ([]*pending, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil, 0
	}
	gen := s.queue[0].gen
	return s.takeLocked(n, gen), gen
}

// take removes up to n queued jobs matching generation gen — the admission
// path: a running group only admits joiners from its own generation.
func (s *Scheduler) take(n int, gen uint64) []*pending {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeLocked(n, gen)
}

// takeLocked removes the longest prefix (≤ n) of the queue whose jobs all
// carry generation gen. Callers hold s.mu.
func (s *Scheduler) takeLocked(n int, gen uint64) []*pending {
	k := 0
	for k < len(s.queue) && k < n && s.queue[k].gen == gen {
		k++
	}
	if k == 0 {
		return nil
	}
	batch := s.queue[:k:k]
	s.queue = append([]*pending(nil), s.queue[k:]...)
	return batch
}

// runGroup claims a System and runs one wave group to completion, admitting
// late arrivals at wave boundaries. Declined members re-run privately.
func (s *Scheduler) runGroup() {
	members, gen := s.takeHead(s.cfg.MaxGroup)
	if len(members) == 0 {
		return
	}
	sys, err := s.pool.Acquire(context.Background())
	if err != nil { // pool context is never cancelled; defensive
		for _, p := range members {
			p.err = err
			close(p.done)
		}
		return
	}

	jobs := make([]gts.SharedJob, len(members))
	for i, p := range members {
		jobs[i] = gts.SharedJob{Kernel: p.job.Kernel, Source: p.job.Source, Faults: p.job.Faults, Trace: p.job.Trace}
	}
	admit := func() []gts.SharedJob {
		joiners := s.take(s.cfg.MaxGroup-len(members), gen)
		if len(joiners) == 0 {
			return nil
		}
		members = append(members, joiners...)
		out := make([]gts.SharedJob, len(joiners))
		for i, p := range joiners {
			out[i] = gts.SharedJob{Kernel: p.job.Kernel, Source: p.job.Source, Faults: p.job.Faults, Trace: p.job.Trace}
		}
		return out
	}
	outs, stats, err := sys.RunShared(jobs, admit)
	s.pool.Release(sys)

	if err != nil {
		for _, p := range members {
			p.err = err
			close(p.done)
		}
		return
	}

	s.mu.Lock()
	s.stats.Groups++
	s.stats.GroupJobs += int64(stats.Members)
	s.stats.Waves += stats.Waves
	s.stats.PageCopies += stats.PageCopies
	s.stats.SharedPageCopies += stats.SharedPageCopies
	s.stats.BytesSaved += stats.BytesSaved
	s.stats.BytesToGPU += stats.BytesToGPU
	s.mu.Unlock()

	// Outcomes pair with members by admission order (RunShared's contract).
	for i, p := range members {
		o := outs[i]
		switch {
		case o.Declined:
			s.solo.Add(1)
			go func(p *pending) {
				defer s.solo.Done()
				s.runSolo(p)
			}(p)
		case o.Err != nil:
			p.err = o.Err
			close(p.done)
		default:
			p.res = Result{State: o.State, Metrics: o.Metrics, Shared: true}
			close(p.done)
		}
	}
}

// runSolo serves one declined job on its own System as a single-member
// group: a group of one shares nothing but keeps the per-job fault and
// trace semantics, and its WA gets the whole machine to itself.
func (s *Scheduler) runSolo(p *pending) {
	defer close(p.done)
	s.mu.Lock()
	s.stats.SoloRuns++
	s.mu.Unlock()
	sys, err := s.pool.Acquire(context.Background())
	if err != nil {
		p.err = err
		return
	}
	defer s.pool.Release(sys)
	outs, _, err := sys.RunShared([]gts.SharedJob{{
		Kernel: p.job.Kernel, Source: p.job.Source, Faults: p.job.Faults, Trace: p.job.Trace,
	}}, nil)
	if err != nil {
		p.err = err
		return
	}
	o := outs[0]
	switch {
	case o.Declined:
		p.err = gts.ErrWontFit
	case o.Err != nil:
		p.err = o.Err
	default:
		p.res = Result{State: o.State, Metrics: o.Metrics}
	}
}
