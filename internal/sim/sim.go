//go:build go1.23

// Package sim provides a deterministic discrete-event simulation core.
//
// It follows the process-interaction style (as in SimPy): model entities are
// processes that block on virtual-time delays and resource acquisitions.
// Exactly one of them runs at a time and events fire in (virtual time,
// insertion sequence) order, so a simulation is reproducible bit-for-bit
// regardless of host scheduling.
//
// A process is a coroutine (iter.Pull) and Run's goroutine the one dispatcher:
// it resumes whichever process the next event names, a direct switch that
// never enters the Go scheduler. A blocking process first drains the queue
// itself (Proc.block): callbacks run inline on it and its own wake-up costs no
// switch. A coroutine outlives its body — it parks on the Env's idle list for
// Process to hand it the next one — and Run stops them all before it returns.
// (The build constraint selects nothing: iter is newer than go.mod's go line,
// and that line is what lets vet accept the import.)
//
// All of the hardware models in internal/hw (GPUs, PCI-E links, SSDs) and the
// cluster interconnect model in internal/cluster are built on this package.
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

// event is one entry of the queue: a Schedule callback (fn) or a process
// start/wake-up (p). Events with equal time fire in insertion order (seq),
// which is what makes the simulation deterministic. Events live by value in
// the heap, so queueing a wake-up allocates nothing.
type event struct {
	at  Time
	seq uint64
	fn  func()
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
	q[n] = event{} // drop the vacated slot's fn/p references
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
	failure error   // first panic captured from a process or callback
	nprocs  int     // processes whose body has not returned, for deadlock detection
	procs   []*Proc // every coroutine Run has started, for it to stop
	idle    []*Proc // processes whose body has returned, for Process to reuse
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env { return &Env{} }

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// enqueue adds ev at absolute virtual time at, stamped with the next
// insertion sequence number.
func (e *Env) enqueue(at Time, ev event) {
	e.seq++
	ev.at, ev.seq = at, e.seq
	e.events.push(ev)
}

// Schedule registers fn to run at absolute virtual time at. Scheduling in the
// past (at < Now) panics: it would make the clock run backwards. fn runs
// inline on whichever goroutine is dispatching at that instant and must not
// block on virtual time; a panic in fn ends the simulation as Run's error.
func (e *Env) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	e.enqueue(at, event{fn: fn})
}

// After registers fn to run d from now.
func (e *Env) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

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
	e.enqueue(e.now, event{p: p})
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

// dispatch runs the event loop on the calling goroutine, which must be the
// one allowed to run: it pops events in (at, seq) order, callbacks inline,
// up to the first that starts or wakes a process (the two look the same) and
// returns that process, or nil when the queue drained or something failed.
func (e *Env) dispatch() *Proc {
	for len(e.events) > 0 && e.failure == nil {
		ev := e.events.pop()
		e.now = ev.at
		if ev.p != nil {
			return ev.p
		}
		e.call(ev.fn)
	}
	return nil
}

// call runs a Schedule callback, turning a panic into the simulation's
// failure rather than unwinding whichever process happens to be dispatching.
func (e *Env) call(fn func()) {
	defer func() {
		if r := recover(); r != nil && e.failure == nil {
			e.failure = fmt.Errorf("sim: scheduled callback panicked: %v", r)
		}
	}()
	fn()
}

// block suspends the calling process until its wake-up event fires. It
// dispatches the queue itself and only switches away — to Run, naming who is
// next — if that is somebody else. yield is false once Run has stopped the
// coroutine, and the body unwinds.
func (p *Proc) block() {
	if next := p.env.dispatch(); next != p && !p.yield(next) {
		panic(stopped{})
	}
}

// wakeAt schedules the process to resume at absolute time at.
func (p *Proc) wakeAt(at Time) { p.env.enqueue(at, event{p: p}) }

// wakeNow schedules the process to resume at the current time, after events
// already queued for this instant.
func (p *Proc) wakeNow() { p.wakeAt(p.env.now) }

// Delay suspends the process for d of virtual time. Negative delays are
// treated as zero.
func (p *Proc) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.env.now + d)
	p.block()
}

// Run executes events until the queue drains, then returns the final virtual
// time. It returns an error if any process or callback panicked or if
// processes are still blocked when the queue empties (a deadlock). No
// goroutine outlives it either way: a body still blocked unwinds.
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

// MustRun is Run for simulations that are bugs-only-fail: it panics on error.
func (e *Env) MustRun() Time {
	t, err := e.Run()
	if err != nil {
		panic(err)
	}
	return t
}

// Signal is a one-shot broadcast event. Processes that Wait before Fire are
// resumed when it fires; waits after Fire return immediately.
type Signal struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

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
type Group struct {
	env     *Env
	count   int
	waiters []*Proc
}

// NewGroup returns a group with zero outstanding work.
func NewGroup(env *Env) *Group { return &Group{env: env} }

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

// QueueLen reports the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.queue) }

// BusyTime reports accumulated server-seconds of utilization.
func (r *Resource) BusyTime() Time {
	r.account()
	return r.busy
}

// Pipe models a bandwidth-limited link with a fixed number of channels.
// Each transfer claims one channel for bytes/rate seconds, so concurrent
// transfers beyond the channel count serialize FIFO — exactly how a DMA
// copy engine behaves.
type Pipe struct {
	res         *Resource
	bytesPerSec float64
	latency     Time
	transferred int64
}

// NewPipe returns a pipe with the given per-channel bandwidth, a fixed
// per-transfer latency, and the given channel count.
func NewPipe(env *Env, bytesPerSec float64, latency Time, channels int) *Pipe {
	return &Pipe{res: NewResource(env, channels), bytesPerSec: bytesPerSec, latency: latency}
}

// Transfer moves n bytes through the pipe, blocking p for queueing plus
// latency plus n/bandwidth.
func (pp *Pipe) Transfer(p *Proc, n int64) {
	pp.res.Acquire(p)
	p.Delay(pp.latency + ByteTime(n, pp.bytesPerSec))
	pp.res.Release()
	pp.transferred += n
}

// TransferTime reports the service time (excluding queueing) for n bytes.
func (pp *Pipe) TransferTime(n int64) Time { return pp.latency + ByteTime(n, pp.bytesPerSec) }

// Transferred reports total bytes moved through the pipe.
func (pp *Pipe) Transferred() int64 { return pp.transferred }

// BusyTime reports accumulated channel-seconds of utilization.
func (pp *Pipe) BusyTime() Time { return pp.res.BusyTime() }
