// Package sim provides a deterministic discrete-event simulation core.
//
// It follows the process-interaction style (as in SimPy): model entities are
// goroutines that block on virtual-time delays and resource acquisitions.
// Exactly one goroutine runs at a time and events fire in (virtual time,
// insertion sequence) order, so a simulation is reproducible bit-for-bit
// regardless of host scheduling.
//
// There is no scheduler goroutine. Whichever goroutine is about to stop
// running — a process blocking in Delay/Wait/Acquire, a process that just
// returned, or Run's caller at the start — dispatches the event queue itself
// (see Env.dispatch) until an event hands control to someone: its own
// wake-up costs no goroutine switch at all, another process's wake-up costs
// one channel send, and Schedule callbacks run inline on whichever goroutine
// is dispatching.
//
// All of the hardware models in internal/hw (GPUs, PCI-E links, SSDs) and the
// cluster interconnect model in internal/cluster are built on this package.
package sim

import (
	"fmt"
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
	idle    chan struct{} // hands control back to Run: queue drained or a failure
	failure error         // first panic captured from a process or callback
	nprocs  int           // live processes, for leak detection
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env {
	return &Env{idle: make(chan struct{}, 1)}
}

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

// Proc is the handle a process goroutine uses to interact with virtual time.
// A Proc is only valid inside the function passed to Process.
type Proc struct {
	env  *Env
	name string
	// resume carries the one wake-up a blocked process is owed when another
	// goroutine pops it. Buffered, so the sender never waits for the
	// receiver to park.
	resume chan struct{}
	// fn and done are the body and the completion signal; fn is cleared
	// when the start event fires, which is how dispatch tells a start from
	// a wake-up.
	fn   func(p *Proc)
	done *Signal
}

// Env returns the environment this process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given to Process.
func (p *Proc) Name() string { return p.name }

// Handle tracks a started process and lets other processes join on it.
type Handle struct {
	done *Signal
}

// Done returns a one-shot signal fired when the process function returns.
func (h *Handle) Done() *Signal { return h.done }

// Process starts fn as a simulation process at the current virtual time.
// fn runs in its own goroutine but only while no other process is running.
func (e *Env) Process(name string, fn func(p *Proc)) *Handle {
	p := &Proc{env: e, name: name, resume: make(chan struct{}, 1), fn: fn, done: NewSignal(e)}
	e.nprocs++
	e.enqueue(e.now, event{p: p})
	return &Handle{done: p.done}
}

// run is a process goroutine's body. It is started holding control (its
// start event was just popped) and, once fn returns or panics, dispatches
// one last time to pass control on before the goroutine exits.
func (p *Proc) run(fn func(p *Proc)) {
	e := p.env
	defer func() {
		if r := recover(); r != nil && e.failure == nil {
			e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
		e.nprocs--
		p.done.Fire()
		e.dispatch(nil)
	}()
	fn(p)
}

// dispatch runs the event loop on the calling goroutine, which must be the
// one goroutine currently allowed to run. It pops events in (at, seq) order
// until one of them gives control to a goroutine: true means that goroutine
// is the caller itself (self's own wake-up — no switch happened), false
// means control went elsewhere — to another process, or back to Run because
// the queue drained or something failed — and the caller must touch no
// simulation state until it is resumed. self is nil for a caller that is
// not a blocked process (Run, or a process that has finished).
func (e *Env) dispatch(self *Proc) bool {
	for len(e.events) > 0 && e.failure == nil {
		ev := e.events.pop()
		e.now = ev.at
		switch p := ev.p; {
		case p == nil:
			e.call(ev.fn)
		case p == self:
			return true
		case p.fn != nil:
			fn := p.fn
			p.fn = nil
			go p.run(fn)
			return false
		default:
			p.resume <- struct{}{}
			return false
		}
	}
	e.idle <- struct{}{}
	return false
}

// call runs a Schedule callback, turning a panic into the simulation's
// failure: the callback may be running on any process's goroutine, so
// letting the panic unwind would kill the program instead of failing Run.
func (e *Env) call(fn func()) {
	defer func() {
		if r := recover(); r != nil && e.failure == nil {
			e.failure = fmt.Errorf("sim: scheduled callback panicked: %v", r)
		}
	}()
	fn()
}

// block suspends the calling process until its wake-up event fires. The
// process dispatches the queue itself meanwhile, and only parks if control
// went to another goroutine first.
func (p *Proc) block() {
	if !p.env.dispatch(p) {
		<-p.resume
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

// Yield gives other events scheduled at the current instant a chance to run.
func (p *Proc) Yield() { p.Delay(0) }

// Run executes events until the queue drains, then returns the final virtual
// time. It returns an error if any process or callback panicked or if
// processes are still blocked when the queue empties (a deadlock). Run's
// goroutine is only the first dispatcher; it gets control back when the
// queue drains or the simulation fails.
func (e *Env) Run() (Time, error) {
	e.dispatch(nil)
	<-e.idle
	if e.failure != nil {
		return e.now, e.failure
	}
	if e.nprocs > 0 {
		return e.now, fmt.Errorf("sim: deadlock: %d process(es) still blocked at %v", e.nprocs, e.now)
	}
	return e.now, nil
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

// InUse reports the number of servers currently held.
func (r *Resource) InUse() int { return r.inUse }

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

// BytesPerSec reports the per-channel bandwidth.
func (pp *Pipe) BytesPerSec() float64 { return pp.bytesPerSec }

// BusyTime reports accumulated channel-seconds of utilization.
func (pp *Pipe) BusyTime() Time { return pp.res.BusyTime() }
