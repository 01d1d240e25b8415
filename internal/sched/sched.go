// Package sched is the topology stream scheduler: it coalesces concurrently
// submitted jobs against one graph into shared wave groups
// (gts.System.RunGroup) so each topology page streams to the GPUs once per
// superstep and serves every member's kernels.
//
// One Scheduler fronts one graph name for as long as the name is served (the
// service layer makes it at the name's first load and hands it to every
// later version of the graph, and runs every job through it; a job with no
// company is a group of one). Each job carries the System it was built
// against, and a group runs on its head job's System and takes only jobs of
// that System, so a group never mixes two snapshots of the graph. Submissions
// batch for a short hold window, then launch as a wave group; jobs that
// arrive while a group is running join it at the next wave boundary through
// the group's admit callback, so a busy scheduler keeps one group open
// continuously instead of queueing convoy-style behind it. A waiter is
// released when its job leaves the group (its Done), not when the group
// ends; the job is counted in GroupJobs just before, the group's own
// counters when it ends. There is one run path: a member the shared machine
// cannot fit (its WA would not fit even after dropping the page cache) goes
// back to the head of the queue marked alone, and runs by itself on a whole
// machine next.
//
// Results do not depend on a job's company by construction — a wave's page
// kernels run against each member's own state, and a page shared by several
// members only shares the simulated data movement and, for plain BFS, one
// pass over the page's bytes (see the commentary in internal/core/group.go).
package sched

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	gts "repro"
	"repro/internal/core"
)

// ErrClosed reports a submission to a scheduler that has shut down.
var ErrClosed = errors.New("sched: scheduler closed")

// Job is one algorithm execution to coalesce into a wave group: the engine's
// own job type. Faults overrides the system's fault plan for this job (nil
// inherits); Trace, when non-nil, receives this job's spans.
type Job = gts.SharedJob

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

// Stats is the sharing tally: a scheduler's lifetime activity, and (summed
// with Add) a server's. All byte figures come from the engine's group
// accounting.
type Stats struct {
	// WaveGroups is how many wave groups ran and GroupJobs how many jobs
	// they served. SoloFallbacks is how many members a group declined and the
	// scheduler re-ran alone; each such re-run is itself a wave group of one.
	WaveGroups    int64 `json:"wave_groups"`
	GroupJobs     int64 `json:"group_jobs"`
	SoloFallbacks int64 `json:"solo_fallbacks"`
	// Waves counts superstep waves across groups; PageCopies host-to-device
	// page transfers; SharedPageCopies the copies that served more than one
	// member (the sharing win); BytesSaved and BytesToGPU the traffic
	// avoided and paid.
	Waves            int64 `json:"waves"`
	PageCopies       int64 `json:"page_copies"`
	SharedPageCopies int64 `json:"shared_page_copies"`
	BytesSaved       int64 `json:"bytes_saved"`
	BytesToGPU       int64 `json:"bytes_to_gpu"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.WaveGroups += o.WaveGroups
	s.GroupJobs += o.GroupJobs
	s.SoloFallbacks += o.SoloFallbacks
	s.Waves += o.Waves
	s.PageCopies += o.PageCopies
	s.SharedPageCopies += o.SharedPageCopies
	s.BytesSaved += o.BytesSaved
	s.BytesToGPU += o.BytesToGPU
}

// pending is a submitted job waiting for (or riding in) a group. Its job's
// Done is deliver.
type pending struct {
	job Job
	sys *gts.System     // the System the job was built against
	ctx context.Context // the waiter's; once done nobody reads the result
	// alone marks a member a group declined: it runs next, by itself.
	alone bool
	done  chan struct{}
	out   gts.SharedOutcome
}

// Scheduler coalesces jobs for one graph into wave groups. It holds a System
// only while a group runs on it.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pending
	closed bool
	stats  Stats

	dispatcher sync.WaitGroup // the dispatcher goroutine
}

// New starts a scheduler. Close must be called to stop it.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults()}
	s.cond = sync.NewCond(&s.mu)
	s.dispatcher.Add(1)
	go func() {
		defer s.dispatcher.Done()
		s.dispatch()
	}()
	return s
}

// Run submits job, built against sys, and blocks until it leaves its group or
// ctx is done. A job whose context is done while it is still queued never
// runs; one already riding in a group is only abandoned — the group keeps
// running its remaining members and the abandoned job's result is
// discarded. The job's Done is the scheduler's own.
func (s *Scheduler) Run(ctx context.Context, sys *gts.System, job Job) (*core.Report, error) {
	if job.Kernel == nil {
		return nil, errors.New("sched: job has no kernel")
	}
	p := &pending{job: job, sys: sys, ctx: ctx, done: make(chan struct{})}
	p.job.Done = func(out gts.SharedOutcome) { s.deliver(p, out) }
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.queue = append(s.queue, p)
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case <-p.done:
		if p.out.Err != nil {
			return nil, p.out.Err
		}
		return &p.out.Report, nil
	case <-ctx.Done():
		return nil, ctx.Err()
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
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.dispatcher.Wait()
}

// dispatch is the scheduler's single control loop. While a group runs, new
// arrivals are admitted into it at wave boundaries, so back-to-back load is
// served by one continuously open group. runGroup is synchronous, so one
// group at a time runs for the graph.
func (s *Scheduler) dispatch() {
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 { // closed and drained
			s.mu.Unlock()
			return
		}
		// Batch window: give concurrent submitters a moment to pile on so
		// the group forms as large as possible. Skipped when draining, and
		// for a declined member, which takes no company.
		hold := s.cfg.Hold
		if s.closed || s.queue[0].alone {
			hold = 0
		}
		s.mu.Unlock()
		time.Sleep(hold)
		s.runGroup()
	}
}

// takeHead removes the next group's initial members from the queue and
// returns the System they run on: the head job by itself when a group
// declined it, otherwise up to n jobs of the head job's System (a job of
// another System cuts the batch short and heads a group of its own later).
func (s *Scheduler) takeHead(n int) (batch []Job, sys *gts.System, alone bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropAbandonedLocked()
	if len(s.queue) == 0 {
		return nil, nil, false
	}
	head := s.queue[0]
	if head.alone {
		s.queue = slices.Delete(s.queue, 0, 1) // the array keeps no pointer to its System
		return []Job{head.job}, head.sys, true
	}
	return s.takeLocked(n, head.sys), head.sys, false
}

// take removes up to n queued jobs of System sys — the admission path: a
// running group only admits joiners built against its own System.
func (s *Scheduler) take(n int, sys *gts.System) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropAbandonedLocked()
	return s.takeLocked(n, sys)
}

// dropAbandonedLocked removes the queued jobs whose waiter has gone: Run has
// returned their context's error, so streaming a run for them would serve
// nobody. Callers hold s.mu.
func (s *Scheduler) dropAbandonedLocked() {
	live := s.queue[:0]
	for _, p := range s.queue {
		if p.ctx.Err() == nil {
			live = append(live, p)
		}
	}
	clear(s.queue[len(live):])
	s.queue = live
}

// takeLocked removes the longest prefix (≤ n) of the queue whose jobs were
// all built against sys and were not declined by a group (those take no
// company), and returns their engine jobs. Callers hold s.mu.
func (s *Scheduler) takeLocked(n int, sys *gts.System) []Job {
	k := 0
	for k < len(s.queue) && k < n && s.queue[k].sys == sys && !s.queue[k].alone {
		k++
	}
	batch := make([]Job, k)
	for i, p := range s.queue[:k] {
		batch[i] = p.job
	}
	s.queue = append([]*pending(nil), s.queue[k:]...)
	return batch
}

// runGroup runs one wave group to completion on its head job's System,
// admitting late arrivals at wave boundaries; each member was answered as it
// left.
func (s *Scheduler) runGroup() {
	jobs, sys, alone := s.takeHead(s.cfg.MaxGroup)
	if len(jobs) == 0 {
		return
	}
	// A lone declined member gets no admit callback: the engine then holds
	// no device memory back for joiners.
	var admit func() []Job
	if !alone {
		n := len(jobs)
		admit = func() []Job {
			joiners := s.take(s.cfg.MaxGroup-n, sys)
			n += len(joiners)
			return joiners
		}
	}
	g, _ := sys.RunGroup(jobs, admit)
	s.mu.Lock()
	s.stats.Add(Stats{WaveGroups: 1, Waves: g.Waves, PageCopies: g.PageCopies,
		SharedPageCopies: g.SharedPageCopies, BytesSaved: g.BytesSaved, BytesToGPU: g.BytesToGPU})
	s.mu.Unlock()
}

// deliver is a pending job's Done, called on the group's goroutine as the job
// leaves it. A declined job goes back to the head of the queue, alone, where
// the running group cannot admit it; declined alone, it fails with
// ErrWontFit. Any other outcome is counted, then its waiter released.
func (s *Scheduler) deliver(p *pending, out gts.SharedOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if out.Declined && !p.alone {
		p.alone = true
		s.stats.SoloFallbacks++
		s.queue = append([]*pending{p}, s.queue...)
		return
	}
	if out.Declined {
		out.Err = gts.ErrWontFit
	}
	p.out = out
	s.stats.GroupJobs++
	close(p.done)
}
