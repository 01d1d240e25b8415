package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// resumeRec is one line of a script's resume log: who got control, when,
// and how many events had been queued by then.
type resumeRec struct {
	at  Time
	seq uint64
	who string
}

// script drives a world with seeded random process bodies. Every process
// draws from its own generator, seeded by (script seed, spawn number), so
// two worlds make the same choices for as long as they behave the same —
// and the first difference in behaviour shows up as a difference in the log.
// Scripts are deadlock-free by construction: every signal gets a scheduled
// Fire when it is made, every group's Done calls come from processes the
// waiter spawned, and resources are held one at a time.
type script struct {
	w      world
	seed   int64
	log    []resumeRec
	nprocs int
	sigs   []signal
	res    []resource
	link   pipe
}

const scriptMaxProcs = 120

func runScript(w world, seed int64) ([]resumeRec, Time, error) {
	s := &script{w: w, seed: seed}
	s.res = []resource{w.resource(1), w.resource(2)}
	s.link = w.pipe(1e9, 2, 1)
	for i := 0; i < 3; i++ {
		s.spawn(0, nil)
	}
	end, err := w.run()
	return s.log, end, err
}

func (s *script) note(who string) {
	s.log = append(s.log, resumeRec{s.w.now(), s.w.stamp(), who})
}

// spawn starts the next numbered process on a random body; after, when
// non-nil, runs as the last thing the process does.
func (s *script) spawn(depth int, after func()) waiter {
	return s.start(func(p proc, name string, rng *rand.Rand) {
		s.body(p, name, rng, depth)
		if after != nil {
			after()
		}
	})
}

// start numbers, names and seeds the next process and starts it on body.
func (s *script) start(body func(p proc, name string, rng *rand.Rand)) waiter {
	id := s.nprocs
	s.nprocs++
	name := fmt.Sprintf("p%d", id)
	rng := rand.New(rand.NewSource(s.seed*1000003 + int64(id)))
	return s.w.spawn(name, func(p proc) {
		s.note(name)
		body(p, name, rng)
	})
}

func (s *script) body(p proc, name string, rng *rand.Rand, depth int) {
	canSpawn := func() bool { return depth < 3 && s.nprocs < scriptMaxProcs }
	for step, steps := 0, 2+rng.Intn(6); step < steps; step++ {
		switch rng.Intn(10) {
		case 0: // Delay, often of zero: ties at one instant are the hard case
			p.delay(Time(rng.Intn(4)))
		case 1: // a Delay of zero: to the back of this instant's queue
			p.delay(0)
		case 2: // a fresh signal, fired by a callback, published for others
			sig := s.w.signal()
			s.w.schedule(s.w.now()+Time(rng.Intn(4)), sig.fire)
			s.sigs = append(s.sigs, sig)
			sig.wait(p)
		case 3: // somebody else's signal, fired already or not
			if len(s.sigs) > 0 {
				s.sigs[rng.Intn(len(s.sigs))].wait(p)
			}
		case 4: // Resource: queue, hold, hand over
			r := s.res[rng.Intn(len(s.res))]
			r.acquire(p)
			s.note(name)
			p.delay(Time(rng.Intn(3)))
			r.release()
		case 5: // Pipe
			s.link.transfer(p, int64(rng.Intn(4000)))
		case 6: // Group fan-out and join
			if canSpawn() {
				g := s.w.group()
				n := 1 + rng.Intn(3)
				g.add(n)
				for i := 0; i < n; i++ {
					s.spawn(depth+1, g.done)
				}
				g.wait(p)
			}
		case 7: // nested Process, joined through its handle or left running
			if canSpawn() {
				h := s.spawn(depth+1, nil)
				if rng.Intn(2) == 0 {
					h.wait(p)
				}
			}
		case 8: // Schedule callback, which may itself start a process
			start := canSpawn() && rng.Intn(2) == 0
			s.w.schedule(s.w.now()+Time(rng.Intn(4)), func() {
				s.note("callback")
				if start && s.nprocs < scriptMaxProcs {
					s.spawn(depth+1, nil)
				}
			})
		}
		s.note(name)
	}
}

// TestDispatchMatchesOracle is the dispatcher's differential test: seeded
// random scripts over every primitive must resume the same process at the
// same (time, seq), step for step, on reused coroutines switched by Run as
// under the central channel-per-hop scheduler of goroutines it replaced.
func TestDispatchMatchesOracle(t *testing.T) {
	seeds := 1500
	if testing.Short() {
		seeds = 200
	}
	resumes := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		want, wantEnd, wantErr := runScript(newOracleWorld(), seed)
		got, gotEnd, gotErr := runScript(newRealWorld(), seed)
		if wantErr != nil || gotErr != nil {
			t.Fatalf("seed %d: script failed: oracle %v, dispatcher %v", seed, wantErr, gotErr)
		}
		if gotEnd != wantEnd {
			t.Fatalf("seed %d: ended at %d, oracle at %d", seed, gotEnd, wantEnd)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d resumes, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: resume %d is %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
		resumes += len(want)
	}
	// The comparison means nothing if the scripts do nothing.
	if mean := resumes / seeds; mean < 40 {
		t.Errorf("scripts average %d resumes, want a real workload (>= 40)", mean)
	}
}

func TestDeadlockCountsBlockedProcesses(t *testing.T) {
	env := NewEnv()
	never := NewSignal(env)
	for i := 0; i < 3; i++ {
		env.Process("stuck", func(p *Proc) {
			p.Delay(Time(i) * Second)
			never.Wait(p)
		})
	}
	env.Process("fine", func(p *Proc) { p.Delay(5 * Second) })
	end, err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "3 process(es) still blocked") {
		t.Errorf("err = %v, want 3 process(es) still blocked", err)
	}
	if end != 5*Second {
		t.Errorf("end = %v, want 5s (the queue ran dry there)", end)
	}
}

// A callback runs on whichever goroutine is dispatching, so its panic has to
// come back as Run's error whether that goroutine is Run's own (no process
// has started yet) or a blocking process's.
func TestCallbackPanicIsRunError(t *testing.T) {
	for _, withProc := range []bool{false, true} {
		env := NewEnv()
		if withProc {
			env.Process("sleeper", func(p *Proc) { p.Delay(2 * Second) })
		}
		env.Schedule(Second, func() { panic("cb-boom") })
		ran := false
		env.Schedule(3*Second, func() { ran = true })
		end, err := env.Run()
		if err == nil || !strings.Contains(err.Error(), "cb-boom") {
			t.Errorf("withProc=%v: err = %v, want the callback's panic", withProc, err)
		}
		if end != Second || ran {
			t.Errorf("withProc=%v: simulation went on after the failure (end %v, later callback ran: %v)", withProc, end, ran)
		}
	}
}

// A process that panics while others are blocked fails Run at that instant.
func TestProcessPanicStopsTheRun(t *testing.T) {
	env := NewEnv()
	env.Process("bystander", func(p *Proc) { p.Delay(10 * Second) })
	env.Process("boom", func(p *Proc) {
		p.Delay(Second)
		panic("kaboom")
	})
	end, err := env.Run()
	if err == nil || !strings.Contains(err.Error(), `process "boom" panicked: kaboom`) {
		t.Errorf("err = %v, want boom's panic", err)
	}
	if end != Second {
		t.Errorf("end = %v, want 1s", end)
	}
}

func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestBlockedProcessDispatches pins who runs what: while a process sleeps
// alone, the callbacks that fall inside its Delay run on its own goroutine,
// and it then takes its own wake-up without ever switching away — Run's
// goroutine is not involved until the queue drains, and runs no body.
func TestBlockedProcessDispatches(t *testing.T) {
	env := NewEnv()
	var procID, callbackID string
	env.Process("p", func(p *Proc) {
		procID = goroutineID()
		env.After(Second, func() { callbackID = goroutineID() })
		p.Delay(2 * Second)
		if got := goroutineID(); got != procID {
			t.Errorf("process resumed on goroutine %s, started on %s", got, procID)
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if callbackID == "" || callbackID != procID {
		t.Errorf("callback ran on goroutine %q, want the blocked process's %q", callbackID, procID)
	}
	if procID == goroutineID() {
		t.Error("process ran on Run's goroutine")
	}
}

// TestRunLeavesNoGoroutines: Run owns the coroutines it starts and stops
// every one before it returns — parked on the idle list after a clean run,
// and still blocked in the middle of a body after a failed one (the bodies
// unwind: their deferred calls run, and the unwinding is not the run's error).
func TestRunLeavesNoGoroutines(t *testing.T) {
	// queued starts 16 processes on a one-server resource nobody releases:
	// one holds it, 15 sit in its queue.
	queued := func(env *Env, unwound *int, holder func(p *Proc)) {
		r := NewResource(env, 1)
		for i := 0; i < 16; i++ {
			env.Process("peer", func(p *Proc) {
				defer func() { *unwound++ }()
				r.Acquire(p)
				holder(p)
			})
		}
	}
	cases := []struct {
		name    string
		build   func(env *Env, unwound *int)
		wantErr string // "" for a clean run
		unwound int    // deferred calls that must have run by the time Run returns
	}{
		{"clean", func(env *Env, _ *int) {
			r := NewResource(env, 2)
			g := NewGroup(env)
			g.Add(40)
			for i := 0; i < 40; i++ {
				env.Process("w", func(p *Proc) {
					for j := 0; j < 5; j++ {
						r.Use(p, Time(1+i%3))
					}
					g.Done()
				})
			}
			env.Process("join", func(p *Proc) { g.Wait(p) })
		}, "", 0},
		{"deadlock", func(env *Env, unwound *int) {
			queued(env, unwound, func(p *Proc) { NewSignal(env).Wait(p) })
		}, "deadlock: 16 process(es) still blocked", 16},
		{"process panic", func(env *Env, unwound *int) {
			queued(env, unwound, func(p *Proc) {
				p.Delay(Second)
				panic("kaboom")
			})
		}, `process "peer" panicked: kaboom`, 16},
		{"callback panic", func(env *Env, unwound *int) {
			queued(env, unwound, func(p *Proc) { p.Delay(2 * Second) })
			env.Schedule(Second, func() { panic("cb-boom") })
		}, "scheduled callback panicked: cb-boom", 16},
	}
	for _, tc := range cases {
		before := runtime.NumGoroutine()
		env := NewEnv()
		unwound := 0
		tc.build(env, &unwound)
		_, err := env.Run()
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
		if unwound != tc.unwound {
			t.Errorf("%s: %d bodies had returned or unwound when Run returned, want %d", tc.name, unwound, tc.unwound)
		}
		// A stopped coroutine's goroutine is on its way out when stop
		// returns; give the runtime a moment to retire it.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after Run, %d before", tc.name, n, before)
		}
	}
}

// TestProcessReusesCoroutines: a coroutine outlives its body, so ten
// back-to-back phases of 16 processes cost 16 coroutines, not 160, and a warm
// phase allocates next to nothing. Each phase is started by a callback the
// last process to finish leaves behind, which runs inside that process's
// final dispatch — so all 16 parked coroutines are taken again, the
// dispatching one included (it finds its own restart in the queue).
func TestProcessReusesCoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	r := NewResource(env, 2)
	work := func(p *Proc) {
		for j := 0; j < 3; j++ {
			r.Use(p, 1)
		}
	}
	peak, left, phases := 0, 0, 0
	var phase func()
	body := func(p *Proc) {
		work(p)
		peak = max(peak, runtime.NumGoroutine()-before)
		if left--; left == 0 && phases < 10 {
			env.After(0, phase)
		}
	}
	phase = func() {
		phases++
		left = 16
		for i := 0; i < 16; i++ {
			env.Process("w", body)
		}
	}
	phase()
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if phases != 10 || peak > 16 {
		t.Errorf("%d phases raised the goroutine count by up to %d, want 10 phases and at most 16", phases, peak)
	}

	// The same phase, joined by a process so it can be measured from inside
	// the run. What is left is the Group's waiter list, one slice a phase
	// (0.06 objects per process); the Process this replaced allocated a
	// Proc, a channel, a Signal and a Handle and started a goroutine: 5.06.
	env = NewEnv()
	g := NewGroup(env)
	joined := func(p *Proc) {
		work(p)
		g.Done()
	}
	var perProc float64
	env.Process("driver", func(p *Proc) {
		run := func() {
			g.Add(16)
			for i := 0; i < 16; i++ {
				env.Process("w", joined)
			}
			g.Wait(p)
		}
		run()
		perProc = testing.AllocsPerRun(50, run) / 16
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if perProc > 0.25 {
		t.Errorf("a warm phase allocates %.2f objects per process, want <= 0.25", perProc)
	}
}

// TestDelayDoesNotAllocate: a wake-up is an event stored by value in the
// heap, so once the heap has its capacity a Delay allocates nothing —
// whether the process wakes itself or is woken by a peer.
func TestDelayDoesNotAllocate(t *testing.T) {
	env := NewEnv()
	stop := false
	var alone, withPeer float64
	env.Process("measured", func(p *Proc) {
		p.Delay(1)
		alone = testing.AllocsPerRun(500, func() { p.Delay(1) })
		env.Process("peer", func(p *Proc) {
			for !stop {
				p.Delay(1)
			}
		})
		p.Delay(1)
		withPeer = testing.AllocsPerRun(500, func() { p.Delay(1) })
		stop = true
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if alone != 0 || withPeer != 0 {
		t.Errorf("Delay allocates %.1f objects alone and %.1f with a peer, want 0", alone, withPeer)
	}
}

// TestResourceQueueDoesNotAllocate: Release pops the wait queue in place, so
// a contended resource in steady state allocates nothing. (Popping by
// re-slicing from the front loses a slot of capacity per hand-over and made
// Acquire's append reallocate every few operations.)
func TestResourceQueueDoesNotAllocate(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	stop := false
	for i := 0; i < 3; i++ {
		env.Process("contender", func(p *Proc) {
			for !stop {
				r.Use(p, 1)
			}
		})
	}
	var allocs float64
	env.Process("measured", func(p *Proc) {
		for i := 0; i < 8; i++ {
			r.Use(p, 1)
		}
		if r.QueueLen() != 2 { // one contender holds the server, two wait
			t.Errorf("queue length %d, want 2 (the resource is not contended)", r.QueueLen())
		}
		allocs = testing.AllocsPerRun(500, func() { r.Use(p, 1) })
		stop = true
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("a contended Acquire/Release allocates %.2f objects, want 0", allocs)
	}
}

// BenchmarkSimHandoff times one blocking operation in the three shapes the
// engine produces, on the dispatcher and on the oracle scheduler: a process
// waking itself (a stream's Delay with nothing else due: no switch at all
// against the oracle's two channel hops), two processes alternating (every
// wake-up belongs to the other one: two coroutine switches through Run
// against two channel hops through the scheduler), and 16 processes queueing
// on a one-server Resource (the PCI-E engine: two blocking operations per op).
func BenchmarkSimHandoff(b *testing.B) {
	cases := []struct {
		name  string
		procs int
		body  func(p proc, r resource, n int)
	}{
		{"selfwake", 1, func(p proc, _ resource, n int) {
			for i := 0; i < n; i++ {
				p.delay(1)
			}
		}},
		{"pingpong", 2, func(p proc, _ resource, n int) {
			for i := 0; i < n; i++ {
				p.delay(1)
			}
		}},
		{"resource16", 16, func(p proc, r resource, n int) {
			for i := 0; i < n; i++ {
				r.acquire(p)
				p.delay(1)
				r.release()
			}
		}},
	}
	worlds := []struct {
		name string
		make func() world
	}{{"handoff", newRealWorld}, {"oracle", newOracleWorld}}
	for _, c := range cases {
		for _, wd := range worlds {
			b.Run(c.name+"/"+wd.name, func(b *testing.B) {
				b.ReportAllocs()
				w := wd.make()
				r := w.resource(1)
				per := b.N/c.procs + 1
				for i := 0; i < c.procs; i++ {
					w.spawn("p", func(p proc) { c.body(p, r, per) })
				}
				b.ResetTimer()
				if _, err := w.run(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
