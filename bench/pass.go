package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one of the four round scripts. The pass drives it: setup
// (timed into setup_s), a warm-up round, then measured rounds, each
// followed by an untimed check.
type workload interface {
	// setup builds everything up to the first servable state, timing each
	// step with p.step.
	setup(p *pass) error
	// prepare builds round i's inputs outside the timed region.
	prepare(p *pass, i int) error
	// round runs round i's operations under parent span sp and keeps their
	// outputs for check.
	round(p *pass, i, sp int) error
	// check verifies the outputs of the round just run, outside the timed
	// region, and returns one record per operation and how many of them
	// failed: against internal/verify references when full, otherwise
	// against the digests a full check recorded.
	check(p *pass, full bool) (ops []opStat, failed int, err error)
	// beginMeasure and endMeasure bracket the measured rounds; endMeasure
	// turns the layer counters' deltas into p.layer values.
	beginMeasure(p *pass)
	endMeasure(p *pass, rounds int)
	// finish runs after the last round, untimed: the direct drivers of a
	// traced pass and any end-of-run check. It returns failed operations.
	finish(p *pass) (failed int, err error)
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "scan-mem":
		return newScanMem(), nil
	case "traverse-mem":
		return newTraverseMem(), nil
	case "stream-ssd":
		return newStreamSSD(), nil
	case "serve-live":
		return newServeLive(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opStat records one operation of a round: a library call or an HTTP
// request. The engine fields are zero for HTTP requests and the HTTP fields
// zero for library calls.
type opStat struct {
	Op     string  `json:"op"`
	WallMs float64 `json:"wall_ms"`
	VirtMs float64 `json:"virt_ms"`
	// Engine operations, from gts.Metrics / gts.SharedStats.
	HostMs     float64 `json:"host_ms,omitempty"`
	XferVirtMs float64 `json:"xfer_virt_ms,omitempty"`
	KernVirtMs float64 `json:"kern_virt_ms,omitempty"`
	ToGPUMB    float64 `json:"to_gpu_mb,omitempty"`
	Pages      int64   `json:"pages,omitempty"`
	Edges      float64 `json:"edges,omitempty"`
	// HTTP requests, from the response.
	JobMs    float64 `json:"job_ms,omitempty"`
	JobRunMs float64 `json:"job_run_ms,omitempty"`
	RespMB   float64 `json:"resp_mb,omitempty"`
	Cached   bool    `json:"cached,omitempty"`
}

// roundStat is one measured round. The memory, GC and CPU figures are
// deltas over the timed region only; the check between rounds is excluded.
type roundStat struct {
	WallMs float64 `json:"wall_ms"`
	// SpeedBefore and SpeedAfter are the machine-speed factors measured
	// right before and right after the round, and RefMs the wall time at
	// reference speed: WallMs over their mean.
	SpeedBefore float64  `json:"speed_before"`
	SpeedAfter  float64  `json:"speed_after"`
	RefMs       float64  `json:"ref_ms"`
	VirtMs      float64  `json:"virt_ms"`
	CPUMs       float64  `json:"cpu_ms"`
	AllocMB     float64  `json:"alloc_mb"`
	Allocs      float64  `json:"allocs"`
	GCs         float64  `json:"gcs"`
	GCPauseMs   float64  `json:"gc_pause_ms"`
	Ops         []opStat `json:"ops,omitempty"`
}

// passResult is what a child process reports to the driver.
type passResult struct {
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	Traced   bool   `json:"traced"`
	// SetupS is the start of the pass to the end of the warm-up round as
	// the clock read it, fixture preparation excluded.
	SetupS     float64            `json:"setup_s"`
	Steps      map[string]float64 `json:"setup_steps_ms"`
	Rounds     []roundStat        `json:"rounds"`
	LiveHeapMB float64            `json:"live_heap_mb"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	StealRatio float64            `json:"steal_ratio"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	// ConfigKeysIgnored lists the knobs of the workload's JSON config that
	// gts.Config no longer has; the workload then measures the default.
	ConfigKeysIgnored []string `json:"config_keys_ignored"`
	// Layer holds the per-layer values a traced pass computed.
	Layer     map[string]float64 `json:"layer,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// pass is the state of one child process: one workload, set up once.
type pass struct {
	o     options
	tr    *tracer
	root  int
	dir   string // scratch directory of this pass
	res   passResult
	layer map[string]float64

	setupNs    time.Duration // timed set-up so far
	setupStart time.Time     // zero while the set-up clock is paused
}

// resumeSetup and pauseSetup run the set-up clock. It starts with the pass
// and is paused around fixture preparation, which stands in for state a real
// deployment already has on disk.
func (p *pass) resumeSetup() { p.setupStart = time.Now() }

func (p *pass) pauseSetup() {
	p.setupNs += time.Since(p.setupStart)
	p.setupStart = time.Time{}
}

// step times one named set-up step and records a span for it; fn gets the
// span as the parent of whatever it records itself.
func (p *pass) step(name string, fn func(sp int) error) error {
	sp := p.tr.begin(name, p.root, -1)
	t0 := time.Now()
	err := fn(sp)
	p.res.Steps[name] += float64(time.Since(t0)) / 1e6
	p.tr.end(sp)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// expect compares an output digest with the verified one. -corrupt flips
// the expectation so that a run can be shown to fail.
func (p *pass) expect(got, want uint64) bool {
	if p.o.corrupt {
		want ^= 1
	}
	return got == want
}

func (p *pass) errorf(format string, args ...any) {
	if len(p.res.Errors) < 20 {
		p.res.Errors = append(p.res.Errors, fmt.Sprintf(format, args...))
	}
}

// runPass is the child process: set up, warm up, measure, check, report.
func runPass(o options) (*passResult, error) {
	p := &pass{o: o, root: -1, layer: make(map[string]float64)}
	p.resumeSetup()
	p.res = passResult{Workload: o.workload, Pass: o.pass, Traced: o.trace,
		Steps: make(map[string]float64), ConfigKeysIgnored: []string{}}
	if o.trace {
		p.tr = newTracer()
	}
	p.root = p.tr.begin("pass", -1, -1)
	p.dir = filepath.Join(o.out, fmt.Sprintf("tmp-%s-%d-%d", o.workload, o.pass, os.Getpid()))
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)

	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	defer w.close()
	total0, steal0 := cpuTimes()

	if err := w.setup(p); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if err := w.prepare(p, -1); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := p.step("run.warmup", func(sp int) error { return w.round(p, -1, sp) }); err != nil {
		return nil, err
	}
	p.pauseSetup()
	p.res.SetupS = p.setupNs.Seconds()
	warmOps, failed, err := w.check(p, true)
	if err != nil {
		return nil, fmt.Errorf("warm-up check: %w", err)
	}
	p.res.Attempted += len(warmOps)
	p.res.Failed += failed

	// Built after set-up and dead before the heap is read, so that its
	// arrays are in neither setup_s nor live_heap_mb.
	cal := newCalibrator()
	cal.speed() // the first sample runs on cold caches
	var ms runtime.MemStats
	runtime.GC()
	w.beginMeasure(p)
	for i := 0; i < o.rounds(); i++ {
		if err := w.prepare(p, i); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		before := cal.speed()
		runtime.ReadMemStats(&ms)
		alloc0, mallocs0, gcs0, pause0 := ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs
		cpu0 := processCPU()
		sp := p.tr.begin("round", p.root, i)
		t0 := time.Now()
		err := w.round(p, i, sp)
		wall := time.Since(t0)
		p.tr.end(sp)
		cpu1 := processCPU()
		runtime.ReadMemStats(&ms)
		after := cal.speed()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		ops, failed, err := w.check(p, i == o.rounds()-1)
		if err != nil {
			return nil, fmt.Errorf("round %d check: %w", i, err)
		}
		rs := roundStat{
			WallMs:      float64(wall) / 1e6,
			SpeedBefore: before,
			SpeedAfter:  after,
			RefMs:       float64(wall) / 1e6 / ((before + after) / 2),
			CPUMs:       float64(cpu1-cpu0) / 1e6,
			AllocMB:     float64(ms.TotalAlloc-alloc0) / 1e6,
			Allocs:      float64(ms.Mallocs - mallocs0),
			GCs:         float64(ms.NumGC - gcs0),
			GCPauseMs:   float64(ms.PauseTotalNs-pause0) / 1e6,
		}
		for _, op := range ops {
			rs.VirtMs += op.VirtMs
		}
		if o.trace {
			rs.Ops = append([]opStat(nil), ops...)
		}
		p.res.Rounds = append(p.res.Rounds, rs)
		p.res.Attempted += len(ops)
		p.res.Failed += failed
	}
	// What the system retains after the measured rounds, with it still
	// referenced by w.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.res.LiveHeapMB = float64(ms.HeapAlloc) / 1e6
	w.endMeasure(p, len(p.res.Rounds))
	total1, steal1 := cpuTimes()
	p.res.StealRatio = ratio(steal1-steal0, total1-total0)
	p.res.PeakRSSMB = peakRSSMB()

	failed, err = w.finish(p)
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	p.res.Failed += failed
	p.tr.end(p.root)
	if o.trace {
		p.setupLayers()
		p.res.Layer = p.layer
		p.res.TraceFile = filepath.Join(o.out, "trace-"+o.workload+".json")
		if err := p.tr.write(p.res.TraceFile, o.workload, newEnvStamp(o)); err != nil {
			return nil, err
		}
	}
	return &p.res, nil
}

// setupLayers turns the timed set-up steps and the tracer's own figures
// into per-layer values.
func (p *pass) setupLayers() {
	for step, ms := range p.res.Steps {
		p.layer[step+"_ms"] = ms
	}
	rounds := float64(len(p.res.Rounds))
	p.layer["trace.spans_per_round"] += ratio(float64(len(p.tr.spans)), rounds)
	p.layer["trace.round_coverage"] = p.tr.roundCoverage()
}
