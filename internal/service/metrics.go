package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	gts "repro"
	"repro/internal/obs"
	"repro/internal/sim"
)

// algoMetrics accumulates one algorithm's serving stats.
type algoMetrics struct {
	jobs    uint64
	wall    time.Duration // wall-clock compute time, cache hits excluded
	virtual sim.Time      // virtual time on the modeled hardware
	latency obs.Histogram // per-job wall latency, cache hits included
}

// metrics is the server's observability state. The counters live in one
// Stats value — the same one a snapshot copies — guarded by one mutex
// (observation paths are short and the contention is dwarfed by the runs
// themselves); the latency distributions live in log-bucketed
// obs.Histograms, which carry their own locks.
type metrics struct {
	mu      sync.Mutex
	st      Stats // the counter fields only; Server.Stats fills in the gauges
	perAlgo map[string]*algoMetrics

	// queueWait is the wait from admission until the job took its graph's
	// run token, for every job that took it; runWall the time from there to
	// its answer.
	queueWait obs.Histogram
	runWall   obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{perAlgo: make(map[string]*algoMetrics)}
}

func (m *metrics) algo(name string) *algoMetrics {
	a := m.perAlgo[name]
	if a == nil {
		a = &algoMetrics{}
		m.perAlgo[name] = a
	}
	return a
}

func (m *metrics) addRejected()  { m.mu.Lock(); m.st.Rejected++; m.mu.Unlock() }
func (m *metrics) addTimedOut()  { m.mu.Lock(); m.st.TimedOut++; m.mu.Unlock() }
func (m *metrics) addFailed()    { m.mu.Lock(); m.st.Failed++; m.mu.Unlock() }
func (m *metrics) addCoalesced() { m.mu.Lock(); m.st.Coalesced++; m.mu.Unlock() }

// addSubmitted counts an accepted submission, and the cache hit if it was.
func (m *metrics) addSubmitted(hit bool) {
	m.mu.Lock()
	m.st.Submitted++
	if hit {
		m.st.CacheHits++
	}
	m.mu.Unlock()
}

func (m *metrics) observeQueueWait(d time.Duration) { m.queueWait.ObserveDuration(d) }
func (m *metrics) observeRunWall(d time.Duration)   { m.runWall.ObserveDuration(d) }

// addFaults folds one run's fault/recovery counters into the totals.
func (m *metrics) addFaults(fs gts.FaultStats) {
	m.mu.Lock()
	m.st.Faults.Add(fs)
	m.mu.Unlock()
}

func (m *metrics) addHWFailure() { m.mu.Lock(); m.st.HWFailures++; m.mu.Unlock() }

// addRun folds one job's engine run into the tally.
func (m *metrics) addRun(g gts.SharedStats) {
	m.mu.Lock()
	sh := &m.st.Sharing
	sh.WaveGroups++
	sh.GroupJobs++
	sh.Waves += g.Waves
	sh.PageCopies += g.PageCopies
	sh.BytesToGPU += g.BytesToGPU
	m.mu.Unlock()
}

// addIngested records one committed ingest batch of edges edge ops.
func (m *metrics) addIngested(edges int64) {
	m.mu.Lock()
	m.st.IngestBatches++
	m.st.IngestEdges += uint64(edges)
	m.mu.Unlock()
}

func (m *metrics) addIngestFailure() { m.mu.Lock(); m.st.IngestFailures++; m.mu.Unlock() }

// addIncHit records one job served from retained epoch state and the
// page-scans it saved relative to a from-scratch run.
func (m *metrics) addIncHit(savedPages int64) {
	m.mu.Lock()
	m.st.IncrementalHits++
	if savedPages > 0 {
		m.st.IncrementalSavedSupersteps += uint64(savedPages)
	}
	m.mu.Unlock()
}

// addIncFallback records one incremental request that fell back to a full
// recompute.
func (m *metrics) addIncFallback() { m.mu.Lock(); m.st.IncrementalFallbacks++; m.mu.Unlock() }

// jobCompleted records one successfully answered job. For computed jobs,
// wall and virtual carry the run's cost; for cache hits both are zero and
// only the end-to-end latency lands in the histogram.
func (m *metrics) jobCompleted(algo string, latency, wall time.Duration, virtual sim.Time) {
	m.mu.Lock()
	m.st.Completed++
	a := m.algo(algo)
	a.jobs++
	a.wall += wall
	a.virtual += virtual
	m.mu.Unlock()
	a.latency.ObserveDuration(latency)
}

// AlgoStats is the public per-algorithm slice of a Stats snapshot.
type AlgoStats struct {
	Jobs           uint64        `json:"jobs"`
	WallCompute    time.Duration `json:"wall_compute"`
	VirtualElapsed sim.Time      `json:"virtual_elapsed"`
	// LatencyP50/P90/P99 are end-to-end job latency quantiles in seconds
	// (upper bounds, within one log bucket of exact — see internal/obs).
	LatencyP50 float64 `json:"latency_p50"`
	LatencyP90 float64 `json:"latency_p90"`
	LatencyP99 float64 `json:"latency_p99"`
}

// LatencySummary is the quantile view of one latency histogram, in seconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func summarize(h *obs.Histogram) LatencySummary {
	s := h.Snapshot()
	return LatencySummary{Count: s.Count, P50: s.Quantile(0.5), P90: s.Quantile(0.9), P99: s.Quantile(0.99)}
}

// SharingStats tallies the engine runs of computed jobs over the server's
// life, so its counters only grow. Each job runs alone
// (gts.System.RunShared with a roster of one), whose tally lands before the
// job answers: WaveGroups and GroupJobs both count runs, and SoloFallbacks
// and BytesSaved, which only a multi-job roster could move, stay 0.
type SharingStats struct {
	WaveGroups    int64 `json:"wave_groups"`
	GroupJobs     int64 `json:"group_jobs"`
	SoloFallbacks int64 `json:"solo_fallbacks"`
	// Waves counts superstep waves, PageCopies host-to-device topology page
	// copies, and BytesToGPU every host-to-device byte the runs paid.
	Waves      int64 `json:"waves"`
	PageCopies int64 `json:"page_copies"`
	BytesSaved int64 `json:"bytes_saved"`
	BytesToGPU int64 `json:"bytes_to_gpu"`
}

// Stats is a point-in-time snapshot of the server's counters, exposed both
// programmatically and (rendered) at /metrics.
type Stats struct {
	// QueueDepth counts admitted jobs still waiting for their graph's run
	// token, InFlight those that took it and are not answered; QueueCap is
	// Config.QueueDepth, which bounds their sum.
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	InFlight   int64  `json:"in_flight"`
	Submitted  uint64 `json:"submitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Rejected   uint64 `json:"rejected"`
	TimedOut   uint64 `json:"timed_out"`
	// Coalesced counts submissions deduplicated onto an identical in-flight
	// job (single-flight).
	Coalesced   uint64 `json:"coalesced"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheSize counts the finished jobs that answer their request by key;
	// JobTableBytes is what the job table charges its finished jobs against
	// its byte budget (outputs, traces and a fixed cost per job).
	CacheSize     int            `json:"cache_size"`
	JobTableBytes int64          `json:"job_table_bytes"`
	Graphs        int            `json:"graphs"`
	Faults        gts.FaultStats `json:"faults"`
	HWFailures    uint64         `json:"hw_failures"`
	// Sharing tallies the engine runs across the loaded graphs.
	Sharing SharingStats `json:"sharing"`
	// Pool holds the snapshot of each graph's shared host page pool, keyed
	// by graph name (nil when no graph has one).
	Pool map[string]gts.PoolStats `json:"pool,omitempty"`
	// IngestBatches/IngestEdges count committed mutation batches and edge
	// ops; IngestFailures counts batches that errored (including crashes).
	IngestBatches  uint64 `json:"ingest_batches"`
	IngestEdges    uint64 `json:"ingest_edges"`
	IngestFailures uint64 `json:"ingest_failures"`
	// IncrementalHits counts jobs served from retained epoch state;
	// IncrementalFallbacks counts incremental requests that fell back to a
	// full recompute; IncrementalSavedSupersteps accumulates the page-scans
	// those hits avoided relative to from-scratch cost.
	IncrementalHits            uint64 `json:"incremental_hits"`
	IncrementalFallbacks       uint64 `json:"incremental_fallbacks"`
	IncrementalSavedSupersteps uint64 `json:"incremental_saved_supersteps"`
	// Retained holds each incremental graph's live retained-entry count.
	Retained map[string]int `json:"retained,omitempty"`
	// WAL holds each mutable graph's write-ahead-log counters, keyed by
	// graph name (nil when no graph is mutable).
	WAL map[string]gts.WALStats `json:"wal,omitempty"`
	// Epochs holds each mutable graph's mutation epoch (last applied LSN).
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	// QueueWait and RunWall summarize the admission-queue wait and engine
	// compute-time distributions.
	QueueWait LatencySummary       `json:"queue_wait"`
	RunWall   LatencySummary       `json:"run_wall"`
	PerAlgo   map[string]AlgoStats `json:"per_algo"`
}

// CacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) CacheHitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// writeMetrics renders the Prometheus text exposition of a snapshot plus
// the latency histograms. Hand-rolled: the repo takes no dependencies
// beyond the standard library.
func (m *metrics) write(w io.Writer, s Stats) {
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("gtsd_queue_depth", "Admitted jobs waiting for their graph's previous job to finish.", s.QueueDepth)
	gauge("gtsd_queue_capacity", "Admission bound: jobs admitted to compute and not yet answered.", s.QueueCap)
	gauge("gtsd_inflight_jobs", "Jobs running on their graph and not yet answered.", s.InFlight)
	gauge("gtsd_graphs_loaded", "Graphs in the registry.", s.Graphs)
	counter("gtsd_jobs_submitted_total", "Jobs admitted, coalesced or served from cache.", s.Submitted)
	counter("gtsd_jobs_completed_total", "Jobs answered successfully (computed or cached).", s.Completed)
	counter("gtsd_jobs_failed_total", "Jobs that errored during execution.", s.Failed)
	counter("gtsd_jobs_rejected_total", "Submissions refused because queue_capacity jobs were unanswered.", s.Rejected)
	counter("gtsd_jobs_timedout_total", "Jobs whose deadline expired before execution.", s.TimedOut)
	counter("gtsd_cache_hits_total", "Result-cache hits.", s.CacheHits)
	counter("gtsd_cache_misses_total", "Result-cache misses.", s.CacheMisses)
	gauge("gtsd_cache_entries", "Finished jobs that answer their request by key.", s.CacheSize)
	gauge("gtsd_job_table_bytes", "Bytes the job table charges its finished jobs: outputs, traces and a fixed cost per job.", s.JobTableBytes)
	counter("gtsd_faults_injected_total", "Hardware faults injected into engine runs.", uint64(s.Faults.Injected()))
	counter("gtsd_fault_retries_total", "Engine retries of faulted operations.", uint64(s.Faults.Retries))
	counter("gtsd_fault_recoveries_total", "Faulted operations that eventually succeeded.", uint64(s.Faults.Recoveries))
	counter("gtsd_fault_degradations_total", "Device-OOM spills from the cached to the streaming path.", uint64(s.Faults.Degradations))
	counter("gtsd_hw_failures_total", "Jobs abandoned after the engine's retry budget was exhausted.", s.HWFailures)
	counter("gtsd_jobs_coalesced_total", "Submissions deduplicated onto an identical in-flight job.", s.Coalesced)
	counter("gtsd_waves_total", "Superstep waves across computed jobs' engine runs.", uint64(s.Sharing.Waves))
	counter("gtsd_page_copies_total", "Topology pages copied to GPUs by computed jobs' engine runs.", uint64(s.Sharing.PageCopies))
	counter("gtsd_shared_bytes_to_gpu_total", "Host-to-device bytes moved by computed jobs' engine runs.", uint64(s.Sharing.BytesToGPU))
	counter("gtsd_ingest_batches_total", "Committed edge-mutation batches across mutable graphs.", s.IngestBatches)
	counter("gtsd_ingest_edges_total", "Edge ops carried by committed ingest batches.", s.IngestEdges)
	counter("gtsd_ingest_failures_total", "Ingest batches that errored, including injected crashes.", s.IngestFailures)
	counter("gtsd_incremental_hits_total", "Jobs served by delta-expansion from retained epoch state.", s.IncrementalHits)
	counter("gtsd_incremental_fallbacks_total", "Incremental requests that fell back to a full recompute.", s.IncrementalFallbacks)
	counter("gtsd_incremental_saved_supersteps_total", "Page-scan supersteps avoided by incremental runs vs from-scratch cost.", s.IncrementalSavedSupersteps)

	if len(s.WAL) > 0 {
		graphs := make([]string, 0, len(s.WAL))
		for name := range s.WAL {
			graphs = append(graphs, name)
		}
		sort.Strings(graphs)
		// The replay series describe the WAL's last open, which a reload
		// replaces, so they are gauges.
		walSeries := func(kind, name, help string, v func(g string) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
			for _, g := range graphs {
				fmt.Fprintf(w, "%s{graph=%q} %d\n", name, g, v(g))
			}
		}
		walSeries("counter", "gtsd_wal_appends_total", "Batches appended to the write-ahead log.", func(g string) int64 { return s.WAL[g].Appends })
		walSeries("counter", "gtsd_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", func(g string) int64 { return s.WAL[g].AppendedBytes })
		walSeries("counter", "gtsd_wal_fsyncs_total", "Physical fsyncs issued by the write-ahead log.", func(g string) int64 { return s.WAL[g].Fsyncs })
		walSeries("gauge", "gtsd_wal_replayed_batches", "Committed batches replayed at the last open.", func(g string) int64 { return s.WAL[g].ReplayedBatches })
		walSeries("gauge", "gtsd_wal_truncated_bytes", "Torn-tail bytes truncated at the last open.", func(g string) int64 { return s.WAL[g].TruncatedBytes })
		walSeries("gauge", "gtsd_graph_epoch", "Mutation epoch (last applied WAL LSN) per mutable graph.", func(g string) int64 { return int64(s.Epochs[g]) })
	}

	if len(s.Pool) > 0 {
		graphs := make([]string, 0, len(s.Pool))
		for name := range s.Pool {
			graphs = append(graphs, name)
		}
		sort.Strings(graphs)
		series := func(kind, name, help string, v func(gts.PoolStats) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
			for _, g := range graphs {
				fmt.Fprintf(w, "%s{graph=%q} %d\n", name, g, v(s.Pool[g]))
			}
		}
		series("counter", "gtsd_pool_hits_total", "Host page-pool pins served from a resident page.", func(p gts.PoolStats) int64 { return p.Hits })
		series("counter", "gtsd_pool_loads_total", "Host page-pool pins that paid a storage read.", func(p gts.PoolStats) int64 { return p.Loads })
		series("counter", "gtsd_pool_evictions_total", "Pages evicted from the host page pool.", func(p gts.PoolStats) int64 { return p.Evictions })
		series("counter", "gtsd_pool_pin_waits_total", "Pins denied (frame busy or all frames pinned) that bypassed the pool.", func(p gts.PoolStats) int64 { return p.PinWaits })
		series("gauge", "gtsd_pool_resident_pages", "Pages currently resident in the host page pool.", func(p gts.PoolStats) int64 { return int64(p.Resident) })
		series("gauge", "gtsd_pool_pinned_pages", "Resident pages currently pinned by a run.", func(p gts.PoolStats) int64 { return int64(p.Pinned) })
		series("gauge", "gtsd_pool_resident_bytes", "Host bytes the pool's resident pages occupy.", func(p gts.PoolStats) int64 { return p.ResidentBytes })
		series("gauge", "gtsd_pool_budget_bytes", "Configured host page-pool budget.", func(p gts.PoolStats) int64 { return p.BudgetBytes })
	}

	fmt.Fprintf(w, "# HELP gtsd_job_queue_wait_seconds Wait from admission until the job started to run.\n# TYPE gtsd_job_queue_wait_seconds histogram\n")
	_ = m.queueWait.WritePrometheus(w, "gtsd_job_queue_wait_seconds", "")
	fmt.Fprintf(w, "# HELP gtsd_job_run_wall_seconds Engine compute wall time per computed job.\n# TYPE gtsd_job_run_wall_seconds histogram\n")
	_ = m.runWall.WritePrometheus(w, "gtsd_job_run_wall_seconds", "")

	// Copy the counter fields under the lock; the latency histograms carry
	// their own locks, so only their pointers are captured here.
	m.mu.Lock()
	names := make([]string, 0, len(m.perAlgo))
	walls := make(map[string]float64, len(m.perAlgo))
	virtuals := make(map[string]float64, len(m.perAlgo))
	algos := make(map[string]*algoMetrics, len(m.perAlgo))
	for name, a := range m.perAlgo {
		names = append(names, name)
		walls[name] = a.wall.Seconds()
		virtuals[name] = a.virtual.Seconds()
		algos[name] = a
	}
	m.mu.Unlock()
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP gtsd_job_wall_seconds_total Wall-clock compute time per algorithm (cache hits excluded).\n# TYPE gtsd_job_wall_seconds_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "gtsd_job_wall_seconds_total{algo=%q} %.6f\n", name, walls[name])
	}
	fmt.Fprintf(w, "# HELP gtsd_job_virtual_seconds_total Virtual time on the modeled hardware per algorithm.\n# TYPE gtsd_job_virtual_seconds_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "gtsd_job_virtual_seconds_total{algo=%q} %.6f\n", name, virtuals[name])
	}
	fmt.Fprintf(w, "# HELP gtsd_job_latency_seconds End-to-end job latency per algorithm.\n# TYPE gtsd_job_latency_seconds histogram\n")
	for _, name := range names {
		_ = algos[name].latency.WritePrometheus(w, "gtsd_job_latency_seconds", fmt.Sprintf("algo=%q", name))
	}
}

// snapshotPerAlgo copies the per-algorithm totals for Stats.
func (m *metrics) snapshotPerAlgo() map[string]AlgoStats {
	m.mu.Lock()
	algos := make(map[string]*algoMetrics, len(m.perAlgo))
	counts := make(map[string]AlgoStats, len(m.perAlgo))
	for name, a := range m.perAlgo {
		algos[name] = a
		counts[name] = AlgoStats{Jobs: a.jobs, WallCompute: a.wall, VirtualElapsed: a.virtual}
	}
	m.mu.Unlock()
	out := make(map[string]AlgoStats, len(algos))
	for name, a := range algos {
		st := counts[name]
		sum := summarize(&a.latency)
		st.LatencyP50, st.LatencyP90, st.LatencyP99 = sum.P50, sum.P90, sum.P99
		out[name] = st
	}
	return out
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	m := s.met
	m.mu.Lock()
	st := m.st
	m.mu.Unlock()
	st.QueueCap = s.cfg.QueueDepth
	// Every submission that was accepted or rejected looked its key up, and
	// each lookup that did not hit missed (a coalesced follower among them).
	st.CacheMisses = st.Submitted + st.Rejected - st.CacheHits
	s.mu.Lock()
	for _, job := range s.byKey {
		switch job.State() {
		case JobQueued:
			st.QueueDepth++
		case JobRunning:
			st.InFlight++
		default:
			st.CacheSize++
		}
	}
	st.JobTableBytes = s.charge
	st.Graphs = len(s.graphs)
	for _, e := range s.graphs {
		if e.inc != nil {
			if st.Retained == nil {
				st.Retained = make(map[string]int)
			}
			st.Retained[e.name] = e.inc.Len()
		}
		if e.mg != nil {
			if st.WAL == nil {
				st.WAL = make(map[string]gts.WALStats)
				st.Epochs = make(map[string]uint64)
			}
			st.WAL[e.name] = e.mg.WALStats()
			st.Epochs[e.name] = e.mg.Epoch()
		}
		if e.sys == nil { // placeholder entry mid-load
			continue
		}
		if hp := e.sys.HostPool(); hp != nil {
			if st.Pool == nil {
				st.Pool = make(map[string]gts.PoolStats)
			}
			st.Pool[e.name] = hp.Stats()
		}
	}
	s.mu.Unlock()
	st.QueueWait = summarize(&m.queueWait)
	st.RunWall = summarize(&m.runWall)
	st.PerAlgo = m.snapshotPerAlgo()
	return st
}
