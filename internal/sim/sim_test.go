package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Errorf("Seconds(1.5) = %v, want 1.5s", Seconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := (1234 * Millisecond).String(); got != "1.234s" {
		t.Errorf("String() = %q, want 1.234s", got)
	}
}

func TestByteTime(t *testing.T) {
	tests := []struct {
		n    int64
		rate float64
		want Time
	}{
		{1 << 30, 1 << 30, Second},            // 1 GiB at 1 GiB/s
		{0, 1e9, 0},                           // nothing to move
		{1 << 20, 0, 0},                       // infinitely fast link
		{-5, 1e9, 0},                          // negative sizes clamp to zero
		{2 << 30, 1 << 30, 2 * Second},        // 2 GiB at 1 GiB/s
		{1 << 29, 1 << 30, 500 * Millisecond}, // half
	}
	for _, tc := range tests {
		if got := ByteTime(tc.n, tc.rate); got != tc.want {
			t.Errorf("ByteTime(%d, %v) = %v, want %v", tc.n, tc.rate, got, tc.want)
		}
	}
}

func TestByteTimeMonotonic(t *testing.T) {
	// Property: more bytes never take less time at a fixed rate.
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return ByteTime(x, 1e9) <= ByteTime(y, 1e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestScheduleOrdering: wake-ups due at one instant resume
// in the order they were queued, not the order their processes started. "c"
// starts before "b" but queues its 1 s wake-up after b's, and the wake-up b's
// Fire queues at 1 s comes after both.
func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var order []string
	var s Signal
	env.Process("a", func(p *Proc) {
		p.Delay(2 * Second)
		order = append(order, "a")
	})
	env.Process("c", func(p *Proc) {
		p.Delay(0)
		p.Delay(Second)
		order = append(order, "c")
	})
	env.Process("b", func(p *Proc) {
		p.Delay(Second)
		order = append(order, "b")
		s.Fire()
	})
	env.Process("d", func(p *Proc) {
		s.Wait(p)
		order = append(order, "d")
	})
	end, err := env.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 2*Second {
		t.Errorf("end = %v, want 2s", end)
	}
	if got := strings.Join(order, " "); got != "b c d a" {
		t.Errorf("order = %q, want \"b c d a\"", got)
	}
}

func TestProcessDelay(t *testing.T) {
	env := NewEnv()
	var at Time
	env.Process("p", func(p *Proc) {
		p.Delay(3 * Second)
		at = env.Now()
		p.Delay(-1) // negative treated as zero
		if env.Now() != at {
			t.Errorf("negative delay advanced time to %v", env.Now())
		}
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*Second {
		t.Errorf("woke at %v, want 3s", at)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	env := NewEnv()
	var log []string
	for _, name := range []string{"a", "b"} {
		name := name
		env.Process(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				log = append(log, name)
				p.Delay(Second)
			}
		})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a b a b a b"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("log = %q, want %q", got, want)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	env := NewEnv()
	env.Process("boom", func(p *Proc) {
		p.Delay(Second)
		panic("kaboom")
	})
	_, err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err = %v, want panic message", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	env := NewEnv()
	var s Signal
	env.Process("stuck", func(p *Proc) { s.Wait(p) })
	_, err := env.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock", err)
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv()
	var s Signal // the zero value is an unfired signal
	woke := 0
	for i := 0; i < 3; i++ {
		env.Process("w", func(p *Proc) {
			s.Wait(p)
			woke++
			if env.Now() != 5*Second {
				t.Errorf("woke at %v, want 5s", env.Now())
			}
		})
	}
	env.Process("firer", func(p *Proc) {
		p.Delay(5 * Second)
		s.Fire()
		s.Fire() // double fire is a no-op
	})
	// A late waiter sees the signal already fired.
	env.Process("late", func(p *Proc) {
		p.Delay(6 * Second)
		s.Wait(p)
		woke++
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4 {
		t.Errorf("woke = %d, want 4", woke)
	}
}

func TestGroupJoin(t *testing.T) {
	env := NewEnv()
	var g Group
	g.Add(3)
	for i := 1; i <= 3; i++ {
		d := Time(i) * Second
		env.Process("w", func(p *Proc) {
			p.Delay(d)
			g.Done()
		})
	}
	var joined Time
	env.Process("joiner", func(p *Proc) {
		g.Wait(p)
		joined = env.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 3*Second {
		t.Errorf("joined at %v, want 3s (slowest worker)", joined)
	}
}

func TestGroupWaitOnZeroReturnsImmediately(t *testing.T) {
	env := NewEnv()
	var g Group // the zero value has nothing outstanding
	ran := false
	env.Process("p", func(p *Proc) {
		g.Wait(p)
		ran = true
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("process never ran")
	}
}

func TestResourceSerializes(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var finishes []Time
	for i := 0; i < 3; i++ {
		env.Process("u", func(p *Proc) {
			r.Use(p, Second)
			finishes = append(finishes, env.Now())
		})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Second, 2 * Second, 3 * Second}
	for i, w := range want {
		if finishes[i] != w {
			t.Errorf("finish[%d] = %v, want %v", i, finishes[i], w)
		}
	}
	if got := r.BusyTime(); got != 3*Second {
		t.Errorf("BusyTime = %v, want 3s", got)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 2)
	var finishes []Time
	for i := 0; i < 4; i++ {
		env.Process("u", func(p *Proc) {
			r.Use(p, Second)
			finishes = append(finishes, env.Now())
		})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run in [0,1], two in [1,2].
	want := []Time{Second, Second, 2 * Second, 2 * Second}
	for i, w := range want {
		if finishes[i] != w {
			t.Errorf("finish[%d] = %v, want %v", i, finishes[i], w)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		env.Process(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			p.Delay(Second)
			r.Release()
		})
	}
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != "first,second,third" {
		t.Errorf("order = %v, want FIFO", order)
	}
}

func TestResourceInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 did not panic")
		}
	}()
	NewResource(NewEnv(), 0)
}

// TestPipelineOverlap models the paper's Figure 3: k streams each doing
// (copy SP, copy RA, kernel) where copies share one engine but kernels run
// concurrently. With kernel time = 2x copy time and 2 streams, copies hide
// entirely behind kernels after warmup.
func TestPipelineOverlap(t *testing.T) {
	env := NewEnv()
	copyEngine := NewResource(env, 1)
	const (
		copyT     = Time(Second)
		kernelT   = Time(2 * Second)
		perStream = 2 // pages per stream
	)
	var g Group
	g.Add(2)
	for s := 0; s < 2; s++ {
		env.Process("stream", func(p *Proc) {
			for i := 0; i < perStream; i++ {
				copyEngine.Use(p, copyT) // copy serializes
				p.Delay(kernelT)         // kernel overlaps
			}
			g.Done()
		})
	}
	var end Time
	env.Process("main", func(p *Proc) {
		g.Wait(p)
		end = env.Now()
	})
	if _, err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Stream A: copy [0,1] kernel [1,3] copy [3,4] kernel [4,6].
	// Stream B: copy [1,2] kernel [2,4] copy [4,5] kernel [5,7].
	if end != 7*Second {
		t.Errorf("pipeline end = %v, want 7s", end)
	}
}
