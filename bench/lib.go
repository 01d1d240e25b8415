package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	gts "repro"
	"repro/internal/bufpool"
	"repro/internal/costmodel"
	"repro/internal/csr"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
	"repro/internal/verify"
)

// libOp is one engine call in the round of a library workload.
type libOp struct {
	name string // one of layerOps
	run  func() (libOut, error)
}

// libOut is what one engine call returned: its metrics, and closures that
// hash the result vector and compare it with the internal/verify reference.
// Both run outside the timed region; the references are computed once, at
// the first full check.
type libOut struct {
	m      gts.Metrics
	shared *gts.SharedStats // set by the wave-group op only
	hash   func() uint64
	verify func() error
}

// lib is a workload that calls gts.System directly. The three library
// workloads differ only in build, which constructs the Systems and lists
// the round's ops.
type lib struct {
	build func(l *lib, p *pass) error

	raw    *csr.Graph // dropped once the references are computed
	g      *gts.Graph
	cfg    gts.Config // the config the main System was built with
	pool   *gts.BufferPool
	pool0  gts.PoolStats
	rec    *trace.Recorder // engine spans of a traced pass
	script []libOp
	outs   []libOut // the last round's outputs, kept for check
	stats  []opStat
	want   []uint64 // verified digest per op

	kindVirt [trace.NumKinds]sim.Time
	recSpans int
}

func (l *lib) setup(p *pass) error {
	d, shrink, err := parseSpec(p.o.graph())
	if err != nil {
		return err
	}
	if p.o.trace {
		l.rec = trace.New()
	}
	if err := p.step("graphgen.generate", func(int) error {
		base, err := d.Generate(shrink)
		if err != nil {
			return err
		}
		// Batch 0 of the seeded edge stream perturbs the topology, so no
		// two seeds stream the same pages or produce the same digests.
		l.raw, err = withBatches(base, seededBatch(p.o.seed, 0, base.NumVertices()))
		return err
	}); err != nil {
		return err
	}
	if err := p.step("slottedpage.build", func(int) error {
		l.g, err = slottedpage.Build(l.raw, gts.PageConfigFor(d.Name, shrink))
		return err
	}); err != nil {
		return err
	}
	p.layer["slottedpage.pages"] = float64(l.g.NumPages())
	return l.build(l, p)
}

// newSystem builds a System from typed settings plus a JSON object of
// knobs. The knobs ROADMAP plans to delete are only ever named in JSON: when
// gts.Config loses one, the key is reported as ignored and the workload
// measures the new default, with no edit to the benchmark.
func (l *lib) newSystem(p *pass, cfg gts.Config, knobs string) (*gts.System, error) {
	ignored, err := applyKnobs(knobs, &cfg)
	if err != nil {
		return nil, err
	}
	p.res.ConfigKeysIgnored = append(p.res.ConfigKeysIgnored, ignored...)
	cfg.Trace = l.rec
	var sys *gts.System
	err = p.step("gts.new_system", func(int) error {
		sys, err = gts.NewSystem(l.g, cfg)
		return err
	})
	return sys, err
}

// applyKnobs decodes the JSON object knobs into cfg one key at a time and
// returns the keys cfg's type does not have.
func applyKnobs(knobs string, cfg any) (ignored []string, err error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(knobs), &obj); err != nil {
		return nil, fmt.Errorf("knobs %s: %w", knobs, err)
	}
	for key, val := range obj {
		one, _ := json.Marshal(map[string]json.RawMessage{key: val}) // re-encoding a decoded value cannot fail
		dec := json.NewDecoder(bytes.NewReader(one))
		dec.DisallowUnknownFields()
		if err := dec.Decode(cfg); err != nil {
			if strings.Contains(err.Error(), "unknown field") {
				ignored = append(ignored, key)
				continue
			}
			return nil, fmt.Errorf("knob %s: %w", key, err)
		}
	}
	sort.Strings(ignored)
	return ignored, nil
}

func (l *lib) prepare(*pass, int) error { return nil }

func (l *lib) round(p *pass, i, sp int) error {
	l.stats = l.stats[:0]
	l.outs = l.outs[:0]
	for _, op := range l.script {
		id := p.tr.begin(op.name, sp, i)
		t0 := time.Now()
		out, err := op.run()
		wall := time.Since(t0)
		p.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		l.outs = append(l.outs, out)
		l.stats = append(l.stats, out.stat(op.name, wall))
	}
	return nil
}

func simMs(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

func (o libOut) stat(name string, wall time.Duration) opStat {
	return opStat{
		Op:         name,
		WallMs:     float64(wall) / 1e6,
		VirtMs:     simMs(o.m.Elapsed),
		HostMs:     float64(o.m.HostKernelWall) / 1e6,
		XferVirtMs: simMs(o.m.TransferTime),
		KernVirtMs: simMs(o.m.KernelTime),
		ToGPUMB:    float64(o.m.BytesToGPU) / 1e6,
		Pages:      o.m.PagesStreamed,
		Edges:      o.m.MTEPS * 1e6 * o.m.Elapsed.Seconds(),
	}
}

func (l *lib) check(p *pass, full bool) ([]opStat, int, error) {
	failed := 0
	if l.want == nil {
		l.want = make([]uint64, len(l.outs))
	}
	for k, out := range l.outs {
		got := out.hash()
		if full {
			if err := out.verify(); err != nil {
				p.errorf("%s: %v", l.script[k].name, err)
				failed++
				continue
			}
			if l.want[k] == 0 {
				l.want[k] = got
			}
		}
		if !p.expect(got, l.want[k]) {
			p.errorf("%s: digest %016x, verified digest %016x", l.script[k].name, got, l.want[k])
			failed++
		}
	}
	l.raw = nil // every reference is memoized by now
	if l.rec != nil {
		for k := range l.kindVirt {
			l.kindVirt[k] += l.rec.Total(trace.Kind(k))
		}
		l.recSpans += l.rec.Len()
		l.rec.Reset()
	}
	return l.stats, failed, nil
}

func (l *lib) beginMeasure(*pass) {
	if l.pool != nil {
		l.pool0 = l.pool.Stats()
	}
	l.kindVirt = [trace.NumKinds]sim.Time{}
	l.recSpans = 0
}

func (l *lib) endMeasure(p *pass, rounds int) {
	if !p.o.trace {
		return
	}
	n := float64(rounds)
	opLayers(p)
	for kind, metric := range map[trace.Kind]string{
		trace.CopyPage:  "trace.copy_virt_ms",
		trace.Kernel:    "trace.kernel_virt_ms",
		trace.StorageIO: "trace.io_virt_ms",
		trace.CopyWA:    "trace.copywa_virt_ms",
		trace.Sync:      "trace.sync_virt_ms",
	} {
		p.layer[metric] = simMs(l.kindVirt[kind]) / n
	}
	p.layer["trace.spans_per_round"] = float64(l.recSpans) / n
	var storage int64
	for k, out := range l.outs {
		switch l.script[k].name {
		case "pagerank":
			p.layer["costmodel.pagerank.residual"] = l.pageRankResidual(out.m)
			p.layer["core.cache_hit_ratio"] = out.m.CacheHitRate
		case "bfs":
			p.layer["costmodel.bfs.residual"] = l.bfsResidual(out.m)
		case "shared8":
			s := out.shared
			p.layer["core.shared.waves"] = float64(s.Waves)
			p.layer["core.shared.page_copies"] = float64(s.PageCopies)
			p.layer["core.shared.servings_per_copy"] = ratio(float64(s.Servings), float64(s.PageCopies))
			p.layer["core.shared.bytes_saved_mb"] = float64(s.BytesSaved) / 1e6
		}
		if out.shared != nil {
			storage += out.shared.StorageBytes
		} else {
			storage += out.m.StorageBytes
		}
	}
	p.layer["hw.storage_mb_per_round"] = float64(storage) / 1e6
	if l.pool != nil {
		s := l.pool.Stats()
		hits, loads := float64(s.Hits-l.pool0.Hits), float64(s.Loads-l.pool0.Loads)
		waits := float64(s.PinWaits - l.pool0.PinWaits)
		p.layer["bufpool.hit_ratio"] = ratio(hits, hits+loads+waits)
		p.layer["bufpool.loads_per_round"] = loads / n
		p.layer["bufpool.evictions_per_round"] = float64(s.Evictions-l.pool0.Evictions) / n
		p.layer["bufpool.pin_waits_per_round"] = waits / n
	}
}

// callOverhead is the per-kernel-call latency of the modeled GPU after the
// config's hardware scaling, the t_call of Eq. 1 and Eq. 2.
func (l *lib) callOverhead() sim.Time {
	scale := l.cfg.ScaleFactor
	if scale < 1 {
		scale = 1
	}
	return hw.TitanX().LaunchOverhead / sim.Time(scale)
}

// pageRankResidual is simulated time over the Eq. 1 prediction (the
// paper's 7.5 sanity check). Eq. 1 streams every page every iteration, so
// a device cache that holds the topology pulls the residual below 1.
func (l *lib) pageRankResidual(m gts.Metrics) float64 {
	pageSize := int64(l.g.Config().PageSize)
	in := costmodel.Inputs{
		WABytes:      m.WABytes,
		RABytes:      int64(l.g.NumVertices()) * 4,
		SPBytes:      int64(l.g.NumSP()) * pageSize,
		LPBytes:      int64(l.g.NumLP()) * pageSize,
		NumSP:        int64(l.g.NumSP()),
		NumLP:        int64(l.g.NumLP()),
		GPUs:         1,
		CallOverhead: l.callOverhead(),
	}
	predicted := costmodel.PageRankLike(in, hw.PCIe3x16()) * sim.Time(m.Levels)
	return ratio(float64(m.Elapsed), float64(predicted))
}

// bfsResidual is simulated time over the Eq. 2 prediction fed with the
// run's own per-level page sets (d_skew = 1, r_hit = 0).
func (l *lib) bfsResidual(m gts.Metrics) float64 {
	levels := make([]costmodel.LevelInputs, len(m.LevelPages))
	for i := range levels {
		levels[i] = costmodel.LevelInputs{SPBytes: m.LevelBytes[i], NumSP: m.LevelPages[i]}
	}
	predicted := costmodel.BFSLike(m.WABytes, levels, 1, 1, 0, l.callOverhead(), hw.PCIe3x16())
	return ratio(float64(m.Elapsed), float64(predicted))
}

// finish runs the direct drivers of a traced pass: PageRank again on one
// host worker, and a bare pin loop over a pool of the workload's size.
func (l *lib) finish(p *pass) (int, error) {
	if !p.o.trace {
		return 0, nil
	}
	for k, op := range l.script {
		if op.name != "pagerank" {
			continue
		}
		sp := p.tr.begin("driver.pagerank_w1", p.root, -1)
		cfg := l.cfg
		cfg.HostPool = nil // a private pool: the driver must not disturb the shared one's counters
		cfg.Trace = nil
		ignored, err := applyKnobs(`{"HostWorkers": 1}`, &cfg)
		if err != nil {
			return 0, err
		}
		p.res.ConfigKeysIgnored = append(p.res.ConfigKeysIgnored, ignored...)
		sys, err := gts.NewSystem(l.g, cfg)
		if err != nil {
			return 0, err
		}
		var host []float64
		for i := 0; i < 3; i++ {
			res, err := sys.PageRank(damping, int(l.outs[k].m.Levels))
			if err != nil {
				return 0, err
			}
			host = append(host, float64(res.HostKernelWall)/1e6)
		}
		p.tr.end(sp)
		p.layer["kernels.pagerank.host_ms_w1"] = median(host)
		p.layer["core.parallel_speedup"] = ratio(median(host), p.layer["kernels.pagerank.host_ms"])
	}
	if l.pool != nil {
		sp := p.tr.begin("driver.bufpool_pin", p.root, -1)
		t0 := time.Now()
		pool, err := bufpool.New(bufpool.Config{PageSize: l.pool.PageSize(), Bytes: l.pool.Budget()})
		if err != nil {
			return 0, err
		}
		const cycles = 20
		pages := uint64(l.g.NumPages())
		for c := 0; c < cycles; c++ {
			for pid := uint64(0); pid < pages; pid++ {
				if pool.Pin(pid) == bufpool.Load {
					pool.Ready(pid)
				}
				pool.Unpin(pid)
			}
		}
		p.layer["bufpool.pin_ns"] = float64(time.Since(t0)) / float64(cycles*pages)
		p.tr.end(sp)
	}
	return 0, nil
}

func (l *lib) close() {}

// opLayers turns the per-op records of a traced pass into the per-op metric
// families: an op's figure for a round is the sum over its calls in that
// round, and the reported value the median over rounds.
func opLayers(p *pass) {
	for _, op := range layerOps {
		var wall, host, virt, xfer, kern, toGPU, pages, edges []float64
		for _, r := range p.res.Rounds {
			var s opStat
			for _, o := range r.Ops {
				if o.Op == op {
					s.WallMs += o.WallMs
					s.HostMs += o.HostMs
					s.VirtMs += o.VirtMs
					s.XferVirtMs += o.XferVirtMs
					s.KernVirtMs += o.KernVirtMs
					s.ToGPUMB += o.ToGPUMB
					s.Pages += o.Pages
					s.Edges += o.Edges
				}
			}
			wall, host, virt = append(wall, s.WallMs), append(host, s.HostMs), append(virt, s.VirtMs)
			xfer, kern = append(xfer, s.XferVirtMs), append(kern, s.KernVirtMs)
			toGPU, pages, edges = append(toGPU, s.ToGPUMB), append(pages, float64(s.Pages)), append(edges, s.Edges)
		}
		p.layer["kernels."+op+".host_ms"] = median(host)
		p.layer["core."+op+".wall_ms"] = median(wall)
		p.layer["core."+op+".self_ms"] = median(wall) - median(host)
		p.layer["core."+op+".pages_streamed"] = median(pages)
		p.layer["sim."+op+".virt_ms"] = median(virt)
		p.layer["hw."+op+".transfer_virt_ms"] = median(xfer)
		p.layer["hw."+op+".kernel_virt_ms"] = median(kern)
		p.layer["hw."+op+".bytes_to_gpu_mb"] = median(toGPU)
		if op == "pagerank" || op == "bfs" {
			p.layer["kernels."+op+".host_medges_per_s"] = ratio(median(edges)/1e6, median(host)/1e3)
		}
	}
}

// --- the three library workloads ---

func newScanMem() workload {
	return &lib{build: func(l *lib, p *pass) error {
		sys, err := l.newSystem(p, gts.Config{}, `{}`)
		if err != nil {
			return err
		}
		l.script = []libOp{l.pageRankOp(sys, 10), l.ccOp(sys)}
		return nil
	}}
}

func newTraverseMem() workload {
	return &lib{build: func(l *lib, p *pass) error {
		plain, err := l.newSystem(p, gts.Config{}, `{}`)
		if err != nil {
			return err
		}
		dir, err := l.newSystem(p, gts.Config{}, `{"DirectionOpt": true}`)
		if err != nil {
			return err
		}
		// Two fixed sources: the hub every RMAT graph has at vertex 0, and
		// an ordinary vertex a third of the way through the ID range.
		for _, src := range []uint64{0, pickSource(l.raw, l.raw.NumVertices()/3)} {
			l.script = append(l.script,
				l.bfsOp("bfs", plain, src), l.ssspOp("sssp", plain, src),
				l.bfsOp("dirbfs", dir, src), l.ssspOp("deltasssp", dir, src))
		}
		return nil
	}}
}

func newStreamSSD() workload {
	return &lib{build: func(l *lib, p *pass) error {
		// The host pool holds a quarter of the topology. The modeled machine
		// is scaled down by the largest power of two that leaves its device
		// memory no smaller than half the topology: once attribute data and
		// stream buffers have taken their share, the device page cache covers
		// under half of it, and every PageRank iteration goes back to the
		// pool and through it to the SSDs. (The 2 MiB floor only matters on
		// the smoke-test graph, where the buffers alone need that much.)
		err := p.step("bufpool.new", func(int) error {
			var err error
			l.pool, err = gts.NewHostPool(l.g, gts.Config{PoolBytes: l.g.TopologyBytes() / 4})
			return err
		})
		if err != nil {
			return err
		}
		scale := int64(1)
		for hw.TitanX().DeviceMemory/(scale*2) >= max(l.g.TopologyBytes()/2, 2<<20) {
			scale *= 2
		}
		l.cfg = gts.Config{Storage: gts.SSDs, Devices: 2, ScaleFactor: scale, HostPool: l.pool}
		sys, err := l.newSystem(p, l.cfg, `{}`)
		if err != nil {
			return err
		}
		sources := make([]uint64, 8)
		for j := range sources {
			sources[j] = pickSource(l.raw, uint64(j)*l.raw.NumVertices()/8+1)
		}
		l.script = []libOp{l.pageRankOp(sys, 3), l.sharedBFSOp(sys, sources)}
		return nil
	}}
}

// pickSource returns the first vertex at or after start with at least 8
// out-edges, so that a traversal from it is not trivially empty.
func pickSource(g *csr.Graph, start uint64) uint64 {
	for v := start; v < g.NumVertices(); v++ {
		if g.Degree(v) >= 8 {
			return v
		}
	}
	return 0
}

func (l *lib) pageRankOp(sys *gts.System, iters int) libOp {
	ref := sync.OnceValue(func() []float64 { return verify.PageRank(l.raw, damping, iters) })
	return libOp{"pagerank", func() (libOut, error) {
		res, err := sys.PageRank(damping, iters)
		if err != nil {
			return libOut{}, err
		}
		return libOut{m: res.Metrics,
			hash:   func() uint64 { return hashF32(res.Ranks) },
			verify: func() error { return checkPageRank(res.Ranks, ref()) }}, nil
	}}
}

func (l *lib) ccOp(sys *gts.System) libOp {
	ref := sync.OnceValue(func() []uint32 { return verify.WCC(l.raw) })
	return libOp{"cc", func() (libOut, error) {
		res, err := sys.CC()
		if err != nil {
			return libOut{}, err
		}
		return libOut{m: res.Metrics,
			hash:   func() uint64 { return hashU32(res.Labels) },
			verify: func() error { return checkEqual("label", res.Labels, ref()) }}, nil
	}}
}

func (l *lib) bfsOp(name string, sys *gts.System, src uint64) libOp {
	ref := sync.OnceValue(func() []int16 { return refBFS(l.raw, src) })
	return libOp{name, func() (libOut, error) {
		res, err := sys.BFS(src)
		if err != nil {
			return libOut{}, err
		}
		return libOut{m: res.Metrics,
			hash:   func() uint64 { return hashI16(res.Levels) },
			verify: func() error { return checkEqual("level", res.Levels, ref()) }}, nil
	}}
}

func (l *lib) ssspOp(name string, sys *gts.System, src uint64) libOp {
	ref := sync.OnceValue(func() []float64 { return refSSSP(l.raw, src) })
	return libOp{name, func() (libOut, error) {
		res, err := sys.SSSP(src)
		if err != nil {
			return libOut{}, err
		}
		return libOut{m: res.Metrics,
			hash:   func() uint64 { return hashF32(res.Dist) },
			verify: func() error { return checkSSSP(res.Dist, ref()) }}, nil
	}}
}

// sharedBFSOp runs one BFS per source as a single wave group through
// System.RunShared. Its metrics are the group's: virtual makespan, page
// copies paid, and the members' host and device times summed.
func (l *lib) sharedBFSOp(sys *gts.System, sources []uint64) libOp {
	refs := make([]func() []int16, len(sources))
	for j, src := range sources {
		refs[j] = sync.OnceValue(func() []int16 { return refBFS(l.raw, src) })
	}
	return libOp{"shared8", func() (libOut, error) {
		jobs := make([]gts.SharedJob, len(sources))
		ks := make([]*kernels.BFS, len(sources))
		for j, src := range sources {
			ks[j] = kernels.NewBFS(l.g)
			jobs[j] = gts.SharedJob{Kernel: ks[j], Source: src}
		}
		outs, stats, err := sys.RunShared(jobs, nil)
		if err != nil {
			return libOut{}, err
		}
		m := gts.Metrics{Elapsed: stats.Elapsed, PagesStreamed: stats.PageCopies, BytesToGPU: stats.BytesToGPU}
		levels := make([][]int16, len(outs))
		for j, o := range outs {
			if o.Err != nil || o.Declined {
				return libOut{}, fmt.Errorf("member %d: declined=%v err=%v", j, o.Declined, o.Err)
			}
			levels[j] = ks[j].Levels(o.State)
			m.HostKernelWall += o.Metrics.HostKernelWall
			m.TransferTime += o.Metrics.TransferTime
			m.KernelTime += o.Metrics.KernelTime
		}
		m.MTEPS = trace.MTEPS(stats.EdgesTraversed, stats.Elapsed)
		return libOut{m: m, shared: &stats,
			hash: func() uint64 {
				h := uint64(0)
				for _, lv := range levels {
					h = h*1099511628211 ^ hashI16(lv)
				}
				return h
			},
			verify: func() error {
				for j, lv := range levels {
					if err := checkEqual("level", lv, refs[j]()); err != nil {
						return fmt.Errorf("member %d: %w", j, err)
					}
				}
				return nil
			}}, nil
	}}
}
