package sim

import (
	"container/heap"
	"fmt"
)

// The scheduler this package had before direct handoff, kept verbatim in
// behaviour as a test oracle: one central goroutine (Run's) pops boxed
// *oEvent closures off a container/heap, and every wake-up is two goroutine
// switches — scheduler → process on resume, process → scheduler on yield.
// Event order is (at, seq) with seq consumed by the same calls in the same
// order as the real Env, so any script must produce the same resume log on
// both (TestDispatchMatchesOracle), and the benchmarks run the same cases
// on both to show what the handoff saves.

type oEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type oHeap []*oEvent

func (h oHeap) Len() int { return len(h) }
func (h oHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h oHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oHeap) Push(x any)   { *h = append(*h, x.(*oEvent)) }
func (h *oHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type oEnv struct {
	now     Time
	seq     uint64
	events  oHeap
	yield   chan struct{} // signalled when the running process blocks or ends
	failure error
	nprocs  int
}

func newOracleEnv() *oEnv { return &oEnv{yield: make(chan struct{})} }

func (e *oEnv) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	heap.Push(&e.events, &oEvent{at: at, seq: e.seq, fn: fn})
}

type oProc struct {
	env    *oEnv
	name   string
	resume chan struct{}
}

// Process returns the process's completion signal (the real Handle.Done).
func (e *oEnv) Process(name string, fn func(p *oProc)) *oSignal {
	done := &oSignal{}
	p := &oProc{env: e, name: name, resume: make(chan struct{})}
	e.nprocs++
	e.Schedule(e.now, func() {
		go func() {
			defer func() {
				if r := recover(); r != nil && e.failure == nil {
					e.failure = fmt.Errorf("sim: process %q panicked: %v", name, r)
				}
				e.nprocs--
				done.Fire()
				e.yield <- struct{}{}
			}()
			<-p.resume
			fn(p)
		}()
		p.resume <- struct{}{}
		<-e.yield
	})
	return done
}

func (p *oProc) block() {
	p.env.yield <- struct{}{}
	<-p.resume
}

func (p *oProc) wakeAt(at Time) {
	p.env.Schedule(at, func() {
		p.resume <- struct{}{}
		<-p.env.yield
	})
}

func (p *oProc) wakeNow() { p.wakeAt(p.env.now) }

func (p *oProc) Delay(d Time) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.env.now + d)
	p.block()
}

func (e *oEnv) Run() (Time, error) {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*oEvent)
		e.now = ev.at
		ev.fn()
		if e.failure != nil {
			return e.now, e.failure
		}
	}
	if e.nprocs > 0 {
		return e.now, fmt.Errorf("sim: deadlock: %d process(es) still blocked at %v", e.nprocs, e.now)
	}
	return e.now, nil
}

type oSignal struct {
	fired   bool
	waiters []*oProc
}

func (s *oSignal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, w := range s.waiters {
		w.wakeNow()
	}
	s.waiters = nil
}

func (s *oSignal) Wait(p *oProc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, p)
	p.block()
}

type oGroup struct {
	count   int
	waiters []*oProc
}

func (g *oGroup) Add(n int) { g.count += n }

func (g *oGroup) Done() {
	g.count--
	if g.count == 0 {
		for _, w := range g.waiters {
			w.wakeNow()
		}
		g.waiters = nil
	}
}

func (g *oGroup) Wait(p *oProc) {
	if g.count == 0 {
		return
	}
	g.waiters = append(g.waiters, p)
	p.block()
}

type oResource struct {
	capacity int
	inUse    int
	queue    []*oProc
}

func (r *oResource) Acquire(p *oProc) {
	if r.inUse < r.capacity && len(r.queue) == 0 {
		r.inUse++
		return
	}
	r.queue = append(r.queue, p)
	p.block()
}

func (r *oResource) Release() {
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		next.wakeNow()
		return
	}
	r.inUse--
}

// world is the slice of the simulation API the differential scripts and the
// handoff benchmarks drive, implemented once over the real package and once
// over the oracle.
type world interface {
	now() Time
	stamp() uint64 // insertion sequence numbers consumed so far
	schedule(at Time, fn func())
	spawn(name string, fn func(p proc)) waiter // the waiter is the process's completion
	signal() signal
	group() group
	resource(capacity int) resource
	pipe(bytesPerSec float64, latency Time, channels int) pipe
	run() (Time, error)
}

type proc interface{ delay(d Time) }
type waiter interface{ wait(p proc) }
type signal interface {
	waiter
	fire()
}
type group interface {
	waiter
	add(n int)
	done()
}
type resource interface {
	acquire(p proc)
	release()
}
type pipe interface{ transfer(p proc, n int64) }

// The real package.

type realWorld struct{ e *Env }
type realProc struct{ p *Proc }
type realSignal struct{ s *Signal }
type realGroup struct{ g *Group }
type realResource struct{ r *Resource }
type realPipe struct{ pp *Pipe }

func newRealWorld() world { return realWorld{NewEnv()} }

func (w realWorld) now() Time                   { return w.e.now }
func (w realWorld) stamp() uint64               { return w.e.seq }
func (w realWorld) schedule(at Time, fn func()) { w.e.Schedule(at, fn) }
func (w realWorld) spawn(name string, fn func(p proc)) waiter {
	// Process returns nothing to join on: the completion is a signal the
	// wrapped body fires last, where the oracle's Process fires its own.
	done := NewSignal(w.e)
	w.e.Process(name, func(p *Proc) {
		fn(realProc{p})
		done.Fire()
	})
	return realSignal{done}
}
func (w realWorld) signal() signal          { return realSignal{NewSignal(w.e)} }
func (w realWorld) group() group            { return realGroup{NewGroup(w.e)} }
func (w realWorld) resource(n int) resource { return realResource{NewResource(w.e, n)} }
func (w realWorld) pipe(bps float64, lat Time, ch int) pipe {
	return realPipe{NewPipe(w.e, bps, lat, ch)}
}
func (w realWorld) run() (Time, error) { return w.e.Run() }

func (p realProc) delay(d Time)              { p.p.Delay(d) }
func (s realSignal) wait(p proc)             { s.s.Wait(p.(realProc).p) }
func (s realSignal) fire()                   { s.s.Fire() }
func (g realGroup) wait(p proc)              { g.g.Wait(p.(realProc).p) }
func (g realGroup) add(n int)                { g.g.Add(n) }
func (g realGroup) done()                    { g.g.Done() }
func (r realResource) acquire(p proc)        { r.r.Acquire(p.(realProc).p) }
func (r realResource) release()              { r.r.Release() }
func (pp realPipe) transfer(p proc, n int64) { pp.pp.Transfer(p.(realProc).p, n) }

// The oracle. Its pipe is the real Pipe's definition spelled out: one
// channel resource held for latency + n/bandwidth.

type oracleWorld struct{ e *oEnv }
type oracleProc struct{ p *oProc }
type oracleSignal struct{ s *oSignal }
type oracleGroup struct{ g *oGroup }
type oracleResource struct{ r *oResource }
type oraclePipe struct {
	res         *oResource
	bytesPerSec float64
	latency     Time
}

func newOracleWorld() world { return oracleWorld{newOracleEnv()} }

func (w oracleWorld) now() Time                   { return w.e.now }
func (w oracleWorld) stamp() uint64               { return w.e.seq }
func (w oracleWorld) schedule(at Time, fn func()) { w.e.Schedule(at, fn) }
func (w oracleWorld) spawn(name string, fn func(p proc)) waiter {
	return oracleSignal{w.e.Process(name, func(p *oProc) { fn(oracleProc{p}) })}
}
func (w oracleWorld) signal() signal          { return oracleSignal{&oSignal{}} }
func (w oracleWorld) group() group            { return oracleGroup{&oGroup{}} }
func (w oracleWorld) resource(n int) resource { return oracleResource{&oResource{capacity: n}} }
func (w oracleWorld) pipe(bps float64, lat Time, ch int) pipe {
	return oraclePipe{&oResource{capacity: ch}, bps, lat}
}
func (w oracleWorld) run() (Time, error) { return w.e.Run() }

func (p oracleProc) delay(d Time)       { p.p.Delay(d) }
func (s oracleSignal) wait(p proc)      { s.s.Wait(p.(oracleProc).p) }
func (s oracleSignal) fire()            { s.s.Fire() }
func (g oracleGroup) wait(p proc)       { g.g.Wait(p.(oracleProc).p) }
func (g oracleGroup) add(n int)         { g.g.Add(n) }
func (g oracleGroup) done()             { g.g.Done() }
func (r oracleResource) acquire(p proc) { r.r.Acquire(p.(oracleProc).p) }
func (r oracleResource) release()       { r.r.Release() }
func (pp oraclePipe) transfer(p proc, n int64) {
	op := p.(oracleProc).p
	pp.res.Acquire(op)
	op.Delay(pp.latency + ByteTime(n, pp.bytesPerSec))
	pp.res.Release()
}
