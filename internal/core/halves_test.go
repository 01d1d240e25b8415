package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/fault"
	"repro/internal/graphgen"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/verify"
)

// TestRunEndsItsFunctionalHalf pins the functional half's lifetime: however
// a run ends — finished, finished on its first wave, declined, aborted on a
// hardware fault, past kernels.MaxLevels, on a kernel's panic in a wave or
// in the first wave's plan, or on a stream process's panic — the goroutine
// that computed its waves has returned when the run does, and the run's
// error is the one a serial loop gave.
func TestRunEndsItsFunctionalHalf(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	deep := buildPages(t, graphgen.Path(kernels.MaxLevels+2))
	small := hw.Workstation(1, 0)
	small.GPUs[0].DeviceMemory = int64(sp.Config().PageSize)
	bfs := func(e *Engine, k kernels.Kernel) error {
		_, err := e.RunJob(SharedJob{Kernel: k, Source: 1836})
		return err
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want func(error) bool
	}{
		{"finished", func() error {
			_, _, err := newEngine(t, sp, Options{}, 2, 1).RunShared([]SharedJob{
				{Kernel: kernels.NewBFS(sp), Source: 1}, {Kernel: kernels.NewBFS(sp), Source: 7}})
			return err
		}, func(err error) bool { return err == nil }},
		{"first-wave-last", func() error {
			// The goroutine returns after the one wave with the second table
			// still in todo; it computes nothing past it.
			k := kernels.NewPageRank(sp, 0.85, 1)
			rep, err := newEngine(t, sp, Options{}, 1, 1).RunJob(SharedJob{Kernel: k})
			if err != nil {
				return err
			}
			want := verify.PageRank(g, 0.85, 1)
			for v, got := range k.Ranks(rep.State) {
				if math.Abs(float64(got)-want[v]) > 1e-4*math.Max(want[v], 1e-9)+1e-7 {
					return fmt.Errorf("vertex %d rank = %v after %d waves, want %v", v, got, rep.Levels, want[v])
				}
			}
			return nil
		}, func(err error) bool { return err == nil }},
		{"declined", func() error {
			e, err := New(small, sp, Options{})
			if err != nil {
				return err
			}
			return bfs(e, kernels.NewBFS(sp))
		}, func(err error) bool { return errors.Is(err, ErrWontFit) }},
		{"fault-aborted", func() error {
			return bfs(newEngine(t, sp, Options{Faults: &fault.Plan{Seed: 1, StorageErrorRate: 1}}, 1, 1), kernels.NewPageRank(sp, 0.85, 5))
		}, func(err error) bool { return errors.Is(err, ErrHardwareFault) }},
		{"past-max-levels", func() error {
			_, err := newEngine(t, deep, Options{}, 1, 0).RunJob(SharedJob{Kernel: kernels.NewBFS(deep)})
			return err
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "MaxLevels") }},
		{"kernel-panics", func() error {
			return bfs(newEngine(t, sp, Options{}, 1, 0), panicsAt{kernels.NewBFS(sp), 2})
		}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), `process "gts-framework" panicked: kernel fault`)
		}},
		{"first-plan-panics", func() error {
			// The first wave's plan runs on the gts-framework process, before
			// the goroutine starts.
			return bfs(newEngine(t, sp, Options{}, 1, 0), panicsPlanning{kernels.NewBFS(sp)})
		}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), `process "gts-framework" panicked: plan fault`)
		}},
		{"stream-panics", func() error {
			// No job makes a stream process panic, so one joins the run's
			// simulation and panics while the waves are streaming.
			e := newEngine(t, sp, Options{}, 1, 1)
			r, err := e.newRun(SharedJob{Kernel: kernels.NewPageRank(sp, 0.85, 5)})
			if err != nil {
				return err
			}
			r.env.Process("gts-framework", r.loop)
			r.env.Process("gpu0/stream0", func(p *sim.Proc) {
				p.Delay(sim.Millisecond)
				panic("stream fault")
			})
			_, err = r.env.Run()
			if r.waves == 0 || r.done {
				t.Errorf("stream-panics: the panic came after %d waves, done %v; want it mid-run", r.waves, r.done)
			}
			return err
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "stream fault") }},
	} {
		base := runtime.NumGoroutine()
		if err := tc.run(); !tc.want(err) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
		// The goroutine has closed done when the run returns; give it the
		// moment it takes to return from there.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Errorf("%s: %d goroutines after the run, %d before", tc.name, n, base)
		}
	}
}

// panicsPlanning is a plain BFS whose kernel panics when it plans level 0.
type panicsPlanning struct{ *kernels.BFS }

func (k panicsPlanning) PlanLevel(sts []kernels.State, level int32, next *bitset.Set) kernels.Direction {
	if level == 0 {
		panic("plan fault")
	}
	return k.BFS.PlanLevel(sts, level, next)
}

// TestStrategyPMergeUnderFaults pins the Strategy-P replica merge in the
// functional half: on two GPUs under the chaos fault plan, whose retries
// and backoffs move every wave's virtual schedule, every kernel's result
// bytes are the fault-free run's, and those are one GPU's but for the
// floating-point sums (PageRank, RWR), which round by partition. Under -race
// (make test-race) it also checks that the merge shares nothing with the
// simulation.
func TestStrategyPMergeUnderFaults(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	for _, kc := range kernelCases() {
		clean, _ := runDigest(t, sp, kc, Options{Strategy: StrategyP}, 2, 1)
		if one, _ := runDigest(t, sp, kc, Options{}, 1, 0); kc.name != "PageRank" && kc.name != "RWR" && !bytes.Equal(one, clean) {
			t.Errorf("%s: 2-GPU Strategy-P results differ from one GPU's", kc.name)
		}
		faulted, rep := runDigest(t, sp, kc, Options{Strategy: StrategyP, Faults: chaosPlan()}, 2, 1)
		if rep.Faults.Injected() == 0 {
			t.Errorf("%s: the chaos plan injected nothing", kc.name)
		}
		if !bytes.Equal(clean, faulted) {
			t.Errorf("%s: 2-GPU Strategy-P results differ under faults", kc.name)
		}
	}
}
