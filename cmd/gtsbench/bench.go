package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	gts "repro"
	"repro/internal/incremental"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
)

// benchEntry is one kernel x worker-count measurement in the regression
// record: real wall-clock cost (whole run and functional-kernel share),
// virtual-time throughput, and the allocation profile of one run.
type benchEntry struct {
	Kernel string `json:"kernel"`
	// Workers is the host worker-pool size the runs executed with.
	Workers int `json:"workers"`
	// WallSeconds is the mean real time of one full engine run;
	// HostKernelSeconds is the share spent in functional kernel execution —
	// the part HostWorkers parallelizes.
	WallSeconds       float64 `json:"wall_seconds"`
	HostKernelSeconds float64 `json:"host_kernel_seconds"`
	// VirtualSeconds and MTEPS come from the deterministic hardware model
	// and are identical at every worker count.
	VirtualSeconds float64 `json:"virtual_seconds"`
	MTEPS          float64 `json:"mteps"`
	// HostMTEPS is traversed edges over real host-kernel time — the figure
	// that moves with HostWorkers and with algorithmic work reduction
	// (direction-optimizing pull levels scan fewer edges), where virtual
	// MTEPS is dominated by the modeled transfer schedule.
	HostMTEPS float64 `json:"host_mteps"`
	// AllocsPerOp and BytesPerOp are heap allocations per full run.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	Runs        int    `json:"runs"`
}

// multiJobEntry is one concurrent-job sharing measurement: n same-kernel
// jobs with distinct sources served by one wave group (System.RunShared).
type multiJobEntry struct {
	Jobs   int    `json:"jobs"`
	Kernel string `json:"kernel"`
	// AggregateMTEPS is the group's total traversed edges over its virtual
	// makespan — the multi-query throughput figure.
	AggregateMTEPS float64 `json:"aggregate_mteps"`
	// BytesPerJob is the group's host-to-device traffic amortized per
	// member; SoloBytes is one solo run's traffic for comparison.
	BytesPerJob float64 `json:"bytes_per_job"`
	SoloBytes   int64   `json:"solo_bytes"`
	// SharedPageCopies counts member servings satisfied by a page another
	// member paid to stream; BytesSaved the traffic that sharing avoided.
	SharedPageCopies int64 `json:"shared_page_copies"`
	BytesSaved       int64 `json:"bytes_saved"`
	Waves            int64 `json:"waves"`
	// WallSeconds is the mean real time of one full group run.
	WallSeconds float64 `json:"wall_seconds"`
	Runs        int     `json:"runs"`
}

// poolEntry is one eviction-policy x kernel measurement over the shared
// host page pool: storage-backed runs through a pool a quarter of the
// topology, contrasting each policy's hit rate on scan-heavy access
// (PageRank touches every page every iteration) against frontier-sparse
// access (BFS touches only frontier pages per level).
type poolEntry struct {
	Policy string `json:"policy"`
	Kernel string `json:"kernel"`
	// HitRate is pool hits over all pool pins of the last (warm) run;
	// Hits/Loads/Evictions are the pool's lifetime counters after all runs.
	HitRate   float64 `json:"hit_rate"`
	Hits      int64   `json:"hits"`
	Loads     int64   `json:"loads"`
	Evictions int64   `json:"evictions"`
	MTEPS     float64 `json:"mteps"`
	// WallSeconds is the mean real time of one full run.
	WallSeconds float64 `json:"wall_seconds"`
	Runs        int     `json:"runs"`
}

// ingestEntry is the WAL-backed mutation-path measurement: batched edge
// ingest throughput (append + fsync + apply + snapshot publish per batch)
// and the cost of a cold recovery replay of the same history.
type ingestEntry struct {
	Batches       int `json:"batches"`
	EdgesPerBatch int `json:"edges_per_batch"`
	// EdgesPerSecond is committed edge ops over total ingest wall time.
	EdgesPerSecond float64 `json:"edges_per_second"`
	// IngestWallSeconds is the mean wall time of committing the full history;
	// ReplayWallSeconds the mean wall time of reopening it (WAL scan +
	// deterministic re-apply), the crash-recovery cost for this history.
	IngestWallSeconds float64 `json:"ingest_wall_seconds"`
	ReplayWallSeconds float64 `json:"replay_wall_seconds"`
	// WALBytes is the log size the history occupies on disk.
	WALBytes int64 `json:"wal_bytes"`
	Runs     int   `json:"runs"`
}

// incrementalEntry is one algo x batch-size measurement of retained-state
// delta expansion vs a from-scratch recompute of the same algorithm on the
// same post-commit snapshot. Runs stream every page each superstep (device
// cache disabled) so the page-scan counts are the superstep work the two
// paths actually perform; the batch inserts edges in the R-MAT degree tail
// — the small-localized-update case incremental recompute exists for.
// Every incremental run is verified byte-identical to the full run before
// its numbers are recorded.
type incrementalEntry struct {
	Algo          string `json:"algo"`
	EdgesPerBatch int    `json:"edges_per_batch"`
	// Seeds is the delta plan's initial frontier size.
	Seeds int `json:"seeds"`
	// FullPages / IncPages count page-scans (superstep work units) of the
	// from-scratch vs the delta-expansion run; SavedSupersteps is their
	// difference and PageSpeedup the ratio (full over inc, floored at 1
	// page so an empty delta does not divide by zero).
	FullPages       int64   `json:"full_pages"`
	IncPages        int64   `json:"inc_pages"`
	SavedSupersteps int64   `json:"saved_supersteps"`
	PageSpeedup     float64 `json:"page_speedup"`
	// FullWallSeconds / IncWallSeconds are mean real times of one run.
	FullWallSeconds float64 `json:"full_wall_seconds"`
	IncWallSeconds  float64 `json:"inc_wall_seconds"`
	Runs            int     `json:"runs"`
}

// benchReport is the BENCH_<rev>.json document.
type benchReport struct {
	Rev        string       `json:"rev"`
	Date       string       `json:"date"`
	Dataset    string       `json:"dataset"`
	Shrink     int          `json:"shrink"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Entries    []benchEntry `json:"entries"`
	// MultiJob records the concurrent-job sharing measurements (empty when
	// -jobs is 0).
	MultiJob []multiJobEntry `json:"multi_job,omitempty"`
	// Pool records the eviction-policy hit-rate sweep over the shared host
	// page pool (informational: the diff gate does not compare it).
	Pool []poolEntry `json:"pool,omitempty"`
	// Ingest records the WAL-backed mutation path's throughput and recovery
	// replay cost (informational: the diff gate does not compare it).
	Ingest []ingestEntry `json:"ingest,omitempty"`
	// Incremental records the delta-expansion vs from-scratch recompute
	// sweep per batch size (informational: the diff gate does not compare
	// it).
	Incremental []incrementalEntry `json:"incremental,omitempty"`
}

// gitRev resolves the short commit hash, or "dev" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

// benchKernels are the kernels the regression record tracks, run through
// the public System API so the measurement covers the same path users hit.
// cfg is the System configuration the measurement runs under (HostWorkers
// is overridden per sweep point).
var benchKernels = []struct {
	name string
	cfg  gts.Config
	run  func(sys *gts.System) (gts.Metrics, error)
}{
	{"BFS", gts.Config{}, func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.BFS(0)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
	{"BFS-diropt", gts.Config{DirectionOpt: true}, func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.BFS(0)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
	{"PageRank", gts.Config{}, func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.PageRank(0.85, 5)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
	{"CC", gts.Config{}, func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.CC()
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
	{"BC", gts.Config{}, func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.BC(0)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
	{"SSSP-delta", gts.Config{DirectionOpt: true}, func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.SSSP(0)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
}

// benchWorkerCounts returns the host worker-pool sizes to sweep: the
// serial baseline, the 8-worker point the golden and differential suites
// pin (recorded on every machine so records stay comparable), plus
// GOMAXPROCS when it is a distinct parallel width.
func benchWorkerCounts() []int {
	counts := []int{1, 8}
	if n := runtime.GOMAXPROCS(0); n > 1 && n != 8 {
		counts = append(counts, n)
	}
	return counts
}

// measureKernel runs one kernel `runs` times at the given worker count and
// averages wall-clock, host-kernel time, and per-run heap allocations.
func measureKernel(g *gts.Graph, name string, cfg gts.Config, run func(*gts.System) (gts.Metrics, error), workers, runs int) (benchEntry, error) {
	cfg.HostWorkers = workers
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		return benchEntry{}, err
	}
	// Warm up once so pools and caches are populated before measuring.
	if _, err := run(sys); err != nil {
		return benchEntry{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var wall, hostKernel time.Duration
	var last gts.Metrics
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		m, err := run(sys)
		if err != nil {
			return benchEntry{}, err
		}
		wall += time.Since(t0)
		hostKernel += m.HostKernelWall
		last = m
	}
	runtime.ReadMemStats(&ms1)
	// Recover the edge count from the deterministic virtual figures, then
	// price it against the mean real host-kernel time.
	hostMTEPS := 0.0
	if hk := hostKernel.Seconds() / float64(runs); hk > 0 {
		edges := last.MTEPS * last.Elapsed.Seconds() // millions of edges
		hostMTEPS = edges / hk
	}
	return benchEntry{
		Kernel:            name,
		Workers:           workers,
		WallSeconds:       wall.Seconds() / float64(runs),
		HostKernelSeconds: hostKernel.Seconds() / float64(runs),
		VirtualSeconds:    last.Elapsed.Seconds(),
		MTEPS:             last.MTEPS,
		HostMTEPS:         hostMTEPS,
		AllocsPerOp:       (ms1.Mallocs - ms0.Mallocs) / uint64(runs),
		BytesPerOp:        (ms1.TotalAlloc - ms0.TotalAlloc) / uint64(runs),
		Runs:              runs,
	}, nil
}

// measureMultiJob runs `jobs` distinct-source BFS jobs as one wave group
// `runs` times and reports the sharing economics: aggregate throughput,
// amortized traffic per member, and the bytes the group avoided streaming.
func measureMultiJob(g *gts.Graph, jobs, runs int) (multiJobEntry, error) {
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		return multiJobEntry{}, err
	}
	solo, err := sys.BFS(0)
	if err != nil {
		return multiJobEntry{}, err
	}
	nv := g.NumVertices()
	stride := nv / uint64(jobs)
	if stride == 0 {
		stride = 1
	}
	group := func() ([]gts.SharedOutcome, gts.SharedStats, error) {
		sj := make([]gts.SharedJob, jobs)
		for i := range sj {
			sj[i] = gts.SharedJob{Kernel: kernels.NewBFS(g), Source: (uint64(i) * stride) % nv}
		}
		return sys.RunShared(sj, nil)
	}
	// Warm up once so pools and caches are populated before measuring.
	if _, _, err := group(); err != nil {
		return multiJobEntry{}, err
	}
	var wall time.Duration
	var last gts.SharedStats
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		outs, stats, err := group()
		if err != nil {
			return multiJobEntry{}, err
		}
		for j, o := range outs {
			if o.Err != nil {
				return multiJobEntry{}, fmt.Errorf("member %d: %w", j, o.Err)
			}
		}
		wall += time.Since(t0)
		last = stats
	}
	return multiJobEntry{
		Jobs:             jobs,
		Kernel:           "BFS",
		AggregateMTEPS:   last.AggregateMTEPS(),
		BytesPerJob:      last.AmortizedBytesPerJob(),
		SoloBytes:        solo.Metrics.BytesToGPU,
		SharedPageCopies: last.SharedPageCopies,
		BytesSaved:       last.BytesSaved,
		Waves:            last.Waves,
		WallSeconds:      wall.Seconds() / float64(runs),
		Runs:             runs,
	}, nil
}

// poolBenchKernels are the two access patterns the pool sweep contrasts.
var poolBenchKernels = []struct {
	name string
	run  func(sys *gts.System) (gts.Metrics, error)
}{
	{"BFS", func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.BFS(0)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
	{"PageRank", func(sys *gts.System) (gts.Metrics, error) {
		res, err := sys.PageRank(0.85, 5)
		if err != nil {
			return gts.Metrics{}, err
		}
		return res.Metrics, nil
	}},
}

// measurePool runs one kernel `runs` times over a fresh quarter-topology
// host pool under the given eviction policy and reports the warm hit rate.
// The device page cache is disabled so every superstep's page touches
// reach the host pool — with it on, the GPU cache absorbs all intra-run
// reuse and every policy degenerates to first-touch loads.
func measurePool(g *gts.Graph, policy, name string, run func(*gts.System) (gts.Metrics, error), runs int) (poolEntry, error) {
	cfg := gts.Config{
		Storage: gts.SSDs, Devices: 1, CacheBytes: gts.CacheDisabled,
		PoolPolicy: policy, PoolBytes: g.TopologyBytes() / 4,
	}
	pool, err := gts.NewHostPool(g, cfg)
	if err != nil {
		return poolEntry{}, err
	}
	cfg.HostPool = pool
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		return poolEntry{}, err
	}
	// Warm up once so the pool holds its steady-state working set.
	if _, err := run(sys); err != nil {
		return poolEntry{}, err
	}
	var wall time.Duration
	var last gts.Metrics
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		m, err := run(sys)
		if err != nil {
			return poolEntry{}, err
		}
		wall += time.Since(t0)
		last = m
	}
	hitRate := 0.0
	if pins := last.PoolHits + last.PoolLoads + last.PoolWaits; pins > 0 {
		hitRate = float64(last.PoolHits) / float64(pins)
	}
	st := pool.Stats()
	return poolEntry{
		Policy:      policy,
		Kernel:      name,
		HitRate:     hitRate,
		Hits:        st.Hits,
		Loads:       st.Loads,
		Evictions:   st.Evictions,
		MTEPS:       last.MTEPS,
		WallSeconds: wall.Seconds() / float64(runs),
		Runs:        runs,
	}, nil
}

// measureIngest commits a deterministic random history of batches×edges
// mutations through the WAL-backed ingest path `runs` times (fresh WAL per
// run), then measures a cold reopen of the final history — the recovery
// replay a crashed server would pay.
func measureIngest(spec string, nv uint64, batches, edgesPerBatch, runs int) (ingestEntry, error) {
	dir, err := os.MkdirTemp("", "gtsbench-wal-*")
	if err != nil {
		return ingestEntry{}, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(42))
	history := make([][]gts.EdgeOp, batches)
	for i := range history {
		ops := make([]gts.EdgeOp, edgesPerBatch)
		for j := range ops {
			ops[j] = gts.EdgeOp{Src: uint64(rng.Int63n(int64(nv))), Dst: uint64(rng.Int63n(int64(nv)))}
		}
		history[i] = ops
	}
	var ingestWall, replayWall time.Duration
	var walBytes int64
	for r := 0; r < runs; r++ {
		walPath := filepath.Join(dir, fmt.Sprintf("run%d.wal", r))
		m, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
		if err != nil {
			return ingestEntry{}, err
		}
		t0 := time.Now()
		for i, ops := range history {
			if _, err := m.Ingest(ops); err != nil {
				m.Close()
				return ingestEntry{}, fmt.Errorf("batch %d: %w", i, err)
			}
		}
		ingestWall += time.Since(t0)
		walBytes = m.WALStats().AppendedBytes
		if err := m.Close(); err != nil {
			return ingestEntry{}, err
		}
		t0 = time.Now()
		reopened, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
		if err != nil {
			return ingestEntry{}, fmt.Errorf("recovery reopen: %w", err)
		}
		replayWall += time.Since(t0)
		if reopened.ReplayedBatches() != batches {
			reopened.Close()
			return ingestEntry{}, fmt.Errorf("replay recovered %d/%d batches", reopened.ReplayedBatches(), batches)
		}
		reopened.Close()
	}
	meanIngest := ingestWall.Seconds() / float64(runs)
	eps := 0.0
	if meanIngest > 0 {
		eps = float64(batches*edgesPerBatch) / meanIngest
	}
	return ingestEntry{
		Batches:           batches,
		EdgesPerBatch:     edgesPerBatch,
		EdgesPerSecond:    eps,
		IngestWallSeconds: meanIngest,
		ReplayWallSeconds: replayWall.Seconds() / float64(runs),
		WALBytes:          walBytes,
		Runs:              runs,
	}, nil
}

// incPeripheralBatch builds an insert-only batch in the R-MAT degree tail:
// high vertex IDs are the low-degree periphery, so the inserted edges
// deviate only a few pages and leave the hub pages untouched.
func incPeripheralBatch(nv uint64, n int) []gts.EdgeOp {
	ops := make([]gts.EdgeOp, n)
	for i := range ops {
		ops[i] = gts.EdgeOp{Src: nv - 2 - uint64(2*i), Dst: nv - 1 - uint64(2*i)}
	}
	return ops
}

// measureIncremental captures retained state from a full streaming run,
// commits one peripheral batch, and prices the delta-expansion run against
// a from-scratch recompute on the post-commit snapshot. The incremental
// result must be byte-identical to the full one or the measurement fails.
func measureIncremental(g *gts.Graph, algo string, edgesPerBatch, runs int) (incrementalEntry, error) {
	const damping = 0.85
	const prIters = 10
	cfg := gts.Config{CacheBytes: gts.CacheDisabled}
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		return incrementalEntry{}, err
	}
	st := incremental.NewStore(0)
	switch algo {
	case "bfs":
		res, err := sys.BFS(0)
		if err != nil {
			return incrementalEntry{}, err
		}
		st.Capture("bfs", &incremental.Entry{
			Kind: incremental.KindBFS, Epoch: 0, Source: 0,
			Levels: res.Levels, FullPages: res.Metrics.PagesStreamed,
		})
	case "cc":
		res, err := sys.CC()
		if err != nil {
			return incrementalEntry{}, err
		}
		st.Capture("cc", &incremental.Entry{
			Kind: incremental.KindCC, Epoch: 0,
			Labels: res.Labels, FullPages: res.Metrics.PagesStreamed,
		})
	case "pagerank":
		rec := incremental.NewRecordingPageRank(g, damping, prIters)
		_, m, err := sys.RunKernel(rec, 0)
		if err != nil {
			return incrementalEntry{}, err
		}
		st.Capture("pagerank", &incremental.Entry{
			Kind: incremental.KindPageRank, Epoch: 0,
			Traj: rec.Traj, Damping: damping, Iterations: prIters,
			FullPages: m.PagesStreamed,
		})
	default:
		return incrementalEntry{}, fmt.Errorf("unknown algo %q", algo)
	}

	batch := incPeripheralBatch(g.NumVertices(), edgesPerBatch)
	g2, err := slottedpage.NewMutable(g).ApplyBatch(batch)
	if err != nil {
		return incrementalEntry{}, err
	}
	st.Commit(0, 1, batch, g)
	prior, delta, ok := st.Lookup(algo)
	if !ok {
		return incrementalEntry{}, fmt.Errorf("%s: retained entry not replayable", algo)
	}
	sys2, err := gts.NewSystem(g2, cfg)
	if err != nil {
		return incrementalEntry{}, err
	}

	// From-scratch recompute on the post-commit snapshot.
	var fullWall time.Duration
	var fullM gts.Metrics
	var fullLevels []int16
	var fullLabels []uint32
	var fullRanks []float32
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		switch algo {
		case "bfs":
			res, err := sys2.BFS(0)
			if err != nil {
				return incrementalEntry{}, err
			}
			fullM, fullLevels = res.Metrics, res.Levels
		case "cc":
			res, err := sys2.CC()
			if err != nil {
				return incrementalEntry{}, err
			}
			fullM, fullLabels = res.Metrics, res.Labels
		case "pagerank":
			res, err := sys2.PageRank(damping, prIters)
			if err != nil {
				return incrementalEntry{}, err
			}
			fullM, fullRanks = res.Metrics, res.Ranks
		}
		fullWall += time.Since(t0)
	}

	// Delta-expansion run, re-planned fresh each time (kernels hold run
	// state), verified byte-identical to the from-scratch result.
	var incWall time.Duration
	var incM gts.Metrics
	seeds := 0
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		switch algo {
		case "bfs":
			k, reason := incremental.PlanBFS(g2, prior, delta)
			if reason != "" {
				return incrementalEntry{}, fmt.Errorf("bfs fell back: %s", reason)
			}
			out, m, err := sys2.RunKernel(k, 0)
			if err != nil {
				return incrementalEntry{}, err
			}
			incM, seeds = m, k.Seeds
			for v, lv := range k.Levels(out) {
				if lv != fullLevels[v] {
					return incrementalEntry{}, fmt.Errorf("bfs: incremental level diverges at vertex %d", v)
				}
			}
		case "cc":
			k, reason := incremental.PlanCC(g2, prior, delta)
			if reason != "" {
				return incrementalEntry{}, fmt.Errorf("cc fell back: %s", reason)
			}
			out, m, err := sys2.RunKernel(k, 0)
			if err != nil {
				return incrementalEntry{}, err
			}
			incM, seeds = m, k.Seeds
			for v, lb := range k.Components(out) {
				if lb != fullLabels[v] {
					return incrementalEntry{}, fmt.Errorf("cc: incremental label diverges at vertex %d", v)
				}
			}
		case "pagerank":
			k, reason := incremental.PlanPageRank(g2, prior, delta, damping, prIters)
			if reason != "" {
				return incrementalEntry{}, fmt.Errorf("pagerank fell back: %s", reason)
			}
			out, m, err := sys2.RunKernel(k, 0)
			if err != nil {
				return incrementalEntry{}, err
			}
			incM, seeds = m, k.Seeds
			for v, r := range k.Ranks(out) {
				if math.Float32bits(r) != math.Float32bits(fullRanks[v]) {
					return incrementalEntry{}, fmt.Errorf("pagerank: incremental rank diverges at vertex %d", v)
				}
			}
		}
		incWall += time.Since(t0)
	}

	incPages := incM.PagesStreamed
	if incPages < 1 {
		incPages = 1
	}
	return incrementalEntry{
		Algo:            algo,
		EdgesPerBatch:   edgesPerBatch,
		Seeds:           seeds,
		FullPages:       fullM.PagesStreamed,
		IncPages:        incM.PagesStreamed,
		SavedSupersteps: fullM.PagesStreamed - incM.PagesStreamed,
		PageSpeedup:     float64(fullM.PagesStreamed) / float64(incPages),
		FullWallSeconds: fullWall.Seconds() / float64(runs),
		IncWallSeconds:  incWall.Seconds() / float64(runs),
		Runs:            runs,
	}, nil
}

// runBenchJSON executes the regression suite and writes BENCH_<rev>.json
// into outDir, returning the path written. jobs > 1 additionally records
// the concurrent-job sharing measurement.
func runBenchJSON(dataset string, shrink, runs, jobs int, outDir string) (string, error) {
	g, err := gts.Generate(dataset, shrink)
	if err != nil {
		return "", err
	}
	rep := benchReport{
		Rev:        gitRev(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Dataset:    dataset,
		Shrink:     shrink,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, bk := range benchKernels {
		for _, workers := range benchWorkerCounts() {
			e, err := measureKernel(g, bk.name, bk.cfg, bk.run, workers, runs)
			if err != nil {
				return "", fmt.Errorf("%s workers=%d: %w", bk.name, workers, err)
			}
			rep.Entries = append(rep.Entries, e)
		}
	}
	if jobs > 1 {
		e, err := measureMultiJob(g, jobs, runs)
		if err != nil {
			return "", fmt.Errorf("multi-job jobs=%d: %w", jobs, err)
		}
		rep.MultiJob = append(rep.MultiJob, e)
	}
	for _, policy := range gts.PoolPolicies() {
		for _, pk := range poolBenchKernels {
			e, err := measurePool(g, policy, pk.name, pk.run, runs)
			if err != nil {
				return "", fmt.Errorf("pool policy=%s kernel=%s: %w", policy, pk.name, err)
			}
			rep.Pool = append(rep.Pool, e)
		}
	}
	{
		spec := fmt.Sprintf("%s@%d", dataset, shrink)
		e, err := measureIngest(spec, g.NumVertices(), 32, 128, runs)
		if err != nil {
			return "", fmt.Errorf("ingest: %w", err)
		}
		rep.Ingest = append(rep.Ingest, e)
	}
	for _, algo := range []string{"bfs", "cc", "pagerank"} {
		for _, b := range []int{1, 8, 64} {
			e, err := measureIncremental(g, algo, b, runs)
			if err != nil {
				return "", fmt.Errorf("incremental %s batch=%d: %w", algo, b, err)
			}
			rep.Incremental = append(rep.Incremental, e)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "BENCH_"+rep.Rev+".json")
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
