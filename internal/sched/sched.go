// Package sched is the topology stream scheduler: it coalesces concurrently
// submitted jobs against one graph into shared wave groups
// (gts.System.RunGroup) so each topology page streams to the GPUs once per
// superstep and serves every member's kernels.
//
// One Scheduler fronts one graph name for as long as the name is served (the
// service layer makes it at the name's first load and hands it to every
// later version of the graph, and hands every job straight to it: it is the
// only queue a job waits in, and a job with no company is a group of one).
// Each job carries the System it was built against, and a group runs on its
// head job's System and takes only jobs of that System, so a group never
// mixes two snapshots of the graph. An idle scheduler waits out a short hold
// after a job arrives, then launches a group of at most maxGroup queued
// jobs; jobs that arrive later join the running group at a wave boundary
// through the group's admit callback whenever it has fewer than maxGroup
// live members, so a busy scheduler keeps one group open, on a warm device
// page cache, continuously instead of queueing convoy-style behind it. A
// waiter is released when its job leaves the group (its Done), not when the
// group ends; the job is counted in GroupJobs just before, the group's own
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

const (
	// maxGroup caps a wave group's live members: a member that leaves frees
	// its place for the next queued job at the next wave boundary.
	maxGroup = 4
	// hold is the batch window an idle scheduler waits out before it
	// launches a group, so jobs submitted together start together. Without
	// it a group's make-up, and every member's virtual time, would depend
	// on which wave boundary each arrival happens to meet.
	hold = 2 * time.Millisecond
)

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
	job   Job
	sys   *gts.System     // the System the job was built against
	ctx   context.Context // the waiter's; once done nobody reads the result
	taken func()          // called under s.mu as a group takes the job, once
	// alone marks a member a group declined: it runs next, by itself.
	alone bool
	done  chan struct{}
	out   gts.SharedOutcome
}

// Scheduler coalesces jobs for one graph into wave groups. It holds a System
// only while a group runs on it.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pending
	live   int // members of the running group that have not left it
	closed bool
	stats  Stats

	dispatcher sync.WaitGroup // the dispatcher goroutine
}

// New starts a scheduler. Close must be called to stop it.
func New() *Scheduler {
	s := &Scheduler{}
	s.cond = sync.NewCond(&s.mu)
	s.dispatcher.Add(1)
	go func() {
		defer s.dispatcher.Done()
		s.dispatch()
	}()
	return s
}

// Run submits job, built against sys, and blocks until it leaves its group or
// ctx is done. taken, if not nil, is called under the scheduler's lock as a
// group takes the job, and not after Run returns. A job whose context is done
// while it is still queued never runs; one already riding in a group is only
// abandoned — the group keeps running its remaining members and the abandoned
// job's result is discarded. The job's Done is the scheduler's own.
func (s *Scheduler) Run(ctx context.Context, sys *gts.System, job Job, taken func()) (*core.Report, error) {
	if job.Kernel == nil {
		return nil, errors.New("sched: job has no kernel")
	}
	p := &pending{job: job, sys: sys, ctx: ctx, taken: taken, done: make(chan struct{})}
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
		s.mu.Lock() // a group has taken the job already or never will
		s.dropAbandonedLocked()
		s.mu.Unlock()
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
		// A draining scheduler, and a declined member, which takes no
		// company, skip the hold.
		wait := !s.closed && !s.queue[0].alone
		s.mu.Unlock()
		if wait {
			time.Sleep(hold)
		}
		s.runGroup()
	}
}

// take removes the jobs a group takes from the queue, calling each one's
// taken. A new group (sys nil) takes the head job by itself when a group
// declined it; otherwise a new group, and a running one's admit, take the
// longest prefix of jobs of System sys (the head's, for a new group) that
// fits maxGroup less the live members. A job of another System, or one a
// group declined, cuts the batch short: it heads a group of its own later.
func (s *Scheduler) take(sys *gts.System) (batch []Job, _ *gts.System, alone bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropAbandonedLocked()
	if len(s.queue) == 0 {
		return nil, sys, false
	}
	if head := s.queue[0]; sys == nil {
		sys = head.sys
		if head.alone {
			s.queue = slices.Delete(s.queue, 0, 1) // the array keeps no pointer to its System
			s.live++
			return []Job{head.job}, sys, true
		}
	}
	k := 0
	for k < len(s.queue) && s.live+k < maxGroup && s.queue[k].sys == sys && !s.queue[k].alone {
		k++
	}
	batch = make([]Job, k)
	for i, p := range s.queue[:k] {
		batch[i] = p.job
		if p.taken != nil {
			p.taken()
		}
	}
	s.live += k
	s.queue = slices.Delete(s.queue, 0, k)
	return batch, sys, false
}

// dropAbandonedLocked removes the queued jobs whose context is done: Run
// returns (or has returned) its error, so streaming a run for them would
// serve nobody. Callers hold s.mu.
func (s *Scheduler) dropAbandonedLocked() {
	kept := s.queue[:0]
	for _, p := range s.queue {
		if p.ctx.Err() == nil {
			kept = append(kept, p)
		}
	}
	clear(s.queue[len(kept):])
	s.queue = kept
}

// runGroup runs one wave group to completion on its head job's System,
// admitting late arrivals at wave boundaries; each member was answered as it
// left.
func (s *Scheduler) runGroup() {
	jobs, sys, alone := s.take(nil)
	if len(jobs) == 0 {
		return
	}
	// A lone declined member gets no admit callback: the engine then holds
	// no device memory back for joiners.
	var admit func() []Job
	if !alone {
		admit = func() []Job { joiners, _, _ := s.take(sys); return joiners }
	}
	g, _ := sys.RunGroup(jobs, admit)
	s.mu.Lock()
	s.stats.Add(Stats{WaveGroups: 1, Waves: g.Waves, PageCopies: g.PageCopies,
		SharedPageCopies: g.SharedPageCopies, BytesSaved: g.BytesSaved, BytesToGPU: g.BytesToGPU})
	s.mu.Unlock()
}

// deliver is a pending job's Done, called on the group's goroutine as the job
// leaves it, freeing its place. A declined job goes back to the head of the
// queue, alone, where the running group cannot admit it; declined alone, it
// fails with ErrWontFit. Any other outcome is counted, then its waiter
// released.
func (s *Scheduler) deliver(p *pending, out gts.SharedOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live--
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
