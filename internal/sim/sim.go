//go:build go1.23

// Package sim provides a deterministic discrete-event simulation core.
//
// It follows the process-interaction style (as in SimPy): model entities are
// processes that block on virtual-time delays and resource acquisitions.
// Exactly one of them runs at a time and events fire in (virtual time,
// insertion sequence) order, so a simulation is reproducible bit-for-bit
// regardless of host scheduling.
//
// Every queued event starts or wakes one process. A process is a coroutine
// (iter.Pull) and Run's goroutine the one dispatcher: it resumes whichever
// process the next event names, a direct switch that never enters the Go
// scheduler. A blocking process pops the next event itself (Proc.block), so
// its own wake-up costs no switch. A coroutine outlives its body — it parks
// on the Env's idle list for Process to hand it the next one — and Run stops
// them all before it returns. (The build constraint selects nothing: iter is
// newer than go.mod's go line, and that line is what lets vet accept the
// import.)
//
// The hardware models in internal/hw (GPUs, PCI-E links, SSDs) are built on
// this package; internal/cluster's interconnect model uses only its Time and
// ByteTime.
package sim

import (
	"fmt"
	"iter"
	"math"
)

// Time is a point in (or span of) virtual time, in nanoseconds.
type Time int64

// Common spans of virtual time.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a floating-point number of seconds to a Time.
func Seconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t in seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// ByteTime reports how long transferring n bytes takes at rate bytes/second.
// A non-positive rate yields zero time (an infinitely fast link).
func ByteTime(n int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Seconds(float64(n) / bytesPerSec)
}

// event is one entry of the queue: the start or wake-up of process p (the
// two look the same). Events with equal time fire in insertion order (seq),
// which is what makes the simulation deterministic. Events live by value in
// the heap, so queueing a wake-up allocates nothing.
type event struct {
	at  Time
	seq uint64
	p   *Proc
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq).
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the vacated slot's process reference
	q = q[:n]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, start processes with Process, then call Run.
// An Env must not be shared between concurrently running simulations.
type Env struct {
	now     Time
	seq     uint64
	events  eventHeap
	failure error   // first panic captured from a process
	nprocs  int     // processes whose body has not returned, for deadlock detection
	procs   []*Proc // every coroutine Run has started, for it to stop
	idle    []*Proc // processes whose body has returned, for Process to reuse
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env { return &Env{} }

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// enqueue queues the start or wake-up of p at absolute virtual time at,
// stamped with the next insertion sequence number.
func (e *Env) enqueue(at Time, p *Proc) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, p: p})
}

// Proc is the handle a process uses to interact with virtual time. A Proc is
// only valid inside the function passed to Process: once that returns, the
// Proc and its coroutine go to the next process started.
type Proc struct {
	env  *Env
	name string        // for a panic's message
	fn   func(p *Proc) // the body, run by the resume that follows Process
	// The coroutine. It yields the process to resume after it, nil when the
	// queue drained or the simulation failed. Only Run calls next and stop.
	next  func() (*Proc, bool)
	stop  func()
	yield func(*Proc) bool
}

// Process starts fn as a simulation process at the current virtual time. fn
// runs on a coroutine, only while no other process is running.
func (e *Env) Process(name string, fn func(p *Proc)) {
	var p *Proc
	if n := len(e.idle); n > 0 {
		p, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		p = &Proc{env: e}
	}
	p.name, p.fn = name, fn
	e.nprocs++
	e.enqueue(e.now, p)
}

// stopped is what unwinds a blocked process's body when Run stops it.
type stopped struct{}

// loop is the coroutine: it runs one body after another, parked on the idle
// list in between, until Run stops it.
func (p *Proc) loop(yield func(*Proc) bool) {
	p.yield = yield
	e := p.env
	for !p.run(p.fn) {
		e.nprocs--
		e.idle = append(e.idle, p)
		if !yield(e.dispatch()) {
			return
		}
	}
}

// run runs one body. Its panic is the simulation's failure, unless it is the
// one block unwinds a stopped body with, which run reports instead.
func (p *Proc) run(fn func(p *Proc)) (wasStopped bool) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case stopped:
			wasStopped = true
		default:
			if p.env.failure == nil {
				p.env.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
	}()
	fn(p)
	return false
}

// dispatch pops the next event, advancing the clock to it, and returns the
// process it starts or wakes, or nil when the queue drained or a process
// failed. The calling goroutine must be the one allowed to run.
func (e *Env) dispatch() *Proc {
	if len(e.events) == 0 || e.failure != nil {
		return nil
	}
	ev := e.events.pop()
	e.now = ev.at
	return ev.p
}

// block suspends the calling process until its wake-up event fires. It
// pops the next event itself and only switches away — to Run, naming who is
// next — if that is somebody else. yield is false once Run has stopped the
// coroutine, and the body unwinds.
func (p *Proc) block() {
	if next := p.env.dispatch(); next != p && !p.yield(next) {
		panic(stopped{})
	}
}

// wakeAt schedules the process to resume at absolute time at.
func (p *Proc) wakeAt(at Time) { p.env.enqueue(at, p) }

// wakeNow schedules the process to resume at the current time, after events
// already queued for this instant.
func (p *Proc) wakeNow() { p.wakeAt(p.env.now) }

// Delay suspends the process for d of virtual time. Negative delays are
// treated as zero.
func (p *Proc) Delay(d Time) {
	p.wakeAt(p.env.now + max(d, 0))
	p.block()
}

// Run executes events until the queue drains, then returns the final virtual
// time. It returns an error if any process panicked or if processes are
// still blocked when the queue empties (a deadlock). No goroutine outlives it
// either way: a body still blocked unwinds.
func (e *Env) Run() (Time, error) {
	for p := e.dispatch(); p != nil; {
		if p.next == nil {
			p.next, p.stop = iter.Pull(p.loop)
			e.procs = append(e.procs, p)
		}
		p, _ = p.next()
	}
	err := e.failure
	if err == nil && e.nprocs > 0 {
		err = fmt.Errorf("sim: deadlock: %d process(es) still blocked at %v", e.nprocs, e.now)
	}
	for _, p := range e.procs {
		p.stop()
	}
	e.procs, e.idle = nil, nil
	return e.now, err
}

// Signal is a one-shot broadcast event. Processes that Wait before Fire are
// resumed when it fires; waits after Fire return immediately. The zero value
// is an unfired signal.
type Signal struct {
	fired   bool
	waiters []*Proc
}

// Fire fires the signal, waking all current waiters. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		w.wakeNow()
	}
	s.waiters = nil
}

// Wait suspends p until the signal fires.
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.block()
}

// Group counts outstanding work, like sync.WaitGroup but in virtual time.
// The zero value has no outstanding work.
type Group struct {
	count   int
	waiters []*Proc
}

// Add increases the outstanding count by n.
func (g *Group) Add(n int) { g.count += n }

// Done decrements the outstanding count, waking waiters at zero.
func (g *Group) Done() {
	g.count--
	if g.count < 0 {
		panic("sim: Group.Done called more times than Add")
	}
	if g.count == 0 {
		for _, w := range g.waiters {
			w.wakeNow()
		}
		g.waiters = nil
	}
}

// Wait suspends p until the outstanding count reaches zero.
func (g *Group) Wait(p *Proc) {
	if g.count == 0 {
		return
	}
	g.waiters = append(g.waiters, p)
	p.block()
}

// Resource is a FIFO multi-server resource: at most Capacity processes hold
// it at once; the rest queue in arrival order.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	queue    []*Proc
	// Busy accumulates server-seconds of utilization for reporting.
	busy     Time
	lastTick Time
}

// NewResource returns a resource with the given server count (capacity >= 1).
func NewResource(env *Env, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: env, capacity: capacity}
}

func (r *Resource) account() {
	r.busy += Time(r.inUse) * (r.env.now - r.lastTick)
	r.lastTick = r.env.now
}

// Acquire blocks p until a server is free, then claims it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.account()
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.block()
	// The releaser transferred a server to us (see Release).
}

// Release frees a server, handing it to the longest-waiting process if any.
func (r *Resource) Release() {
	r.account()
	if len(r.queue) > 0 {
		// Pop by copying down: re-slicing from the front would strand the
		// head of the backing array and make every later append reallocate.
		next := r.queue[0]
		n := copy(r.queue, r.queue[1:])
		r.queue[n] = nil
		r.queue = r.queue[:n]
		// Server ownership transfers directly; inUse is unchanged.
		next.wakeNow()
		return
	}
	r.inUse--
	if r.inUse < 0 {
		panic("sim: Resource.Release without matching Acquire")
	}
}

// Use acquires the resource, holds it for d, and releases it.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Delay(d)
	r.Release()
}

// BusyTime reports accumulated server-seconds of utilization.
func (r *Resource) BusyTime() Time {
	r.account()
	return r.busy
}
