// Package service is the concurrent analytics layer over the GTS engine:
// a long-lived Server that holds named, pre-loaded slotted-page graphs
// (each run by one gts.System), admits a bounded number of algorithm jobs
// with per-job deadlines and hands each to its graph's wave-group scheduler,
// memoizes completed answers in an LRU result cache — the service-level
// analogue of the engine's cachedPIDMap — and exports queue/cache/latency
// metrics. cmd/gtsd wraps it in an HTTP daemon; it is equally usable
// in-process (see ServiceBench in the root package's benchmarks).
//
// Lifecycle of a job: Submit normalizes the request through gts's algorithm
// table and consults the cache — a hit completes the job immediately; a miss
// coalesces behind an identical job in flight, is admitted or, if
// QueueDepth admitted jobs are still unanswered, is rejected with
// ErrOverloaded. An admitted job goes through the one execute pipeline
// (execute.go) on a goroutine of its own: kernel resolution, the graph's
// wave-group scheduler — the one queue, where the job waits until a group
// takes it, and which drops a job whose deadline expires there — then error
// classification and accounting. Runs are not preempted: a deadline that
// expires mid-run does not cancel the engine, it only bounds the wait for a
// group.
//
// The package is laid out along that path: service.go (admission: Submit,
// single-flight, Shutdown), job.go (the Job handle),
// graphs.go (the graph registry: load, ingest, health), execute.go (the
// pipeline), incremental.go and algos.go (retained state), cache.go,
// metrics.go, tracestore.go and http.go.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	gts "repro"
	"repro/internal/sched"
)

// Typed errors; the HTTP layer maps each to a status code.
var (
	// ErrOverloaded reports that QueueDepth admitted jobs were still
	// unanswered (HTTP 429).
	ErrOverloaded = errors.New("service: overloaded, queue full")
	// ErrUnknownGraph reports a request against a graph name that was
	// never loaded (HTTP 404).
	ErrUnknownGraph = errors.New("service: unknown graph")
	// ErrUnknownAlgo reports an unrecognized algorithm name (HTTP 404).
	ErrUnknownAlgo = errors.New("service: unknown algorithm")
	// ErrUnknownJob reports a status query for an unknown job ID (404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrShuttingDown reports a submission after Shutdown began (503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrTimeout is the outcome of a job whose deadline expired before it
	// could run (HTTP 504).
	ErrTimeout = errors.New("service: job deadline expired")
	// ErrGraphNotReady reports a job against a graph still loading or
	// recovering, or one degraded by an ingest crash (HTTP 503).
	ErrGraphNotReady = errors.New("service: graph not ready")
	// ErrImmutableGraph reports an ingest against a graph loaded without a
	// WAL (HTTP 409).
	ErrImmutableGraph = errors.New("service: graph is immutable (loaded without a WAL)")
)

// jobHistory bounds how many finished jobs remain queryable by ID.
const jobHistory = 1024

// Config sizes a Server. The zero value is serviceable: 64 jobs admitted at
// a time, a 256-entry result cache, no default deadline. How many jobs run
// at once is each graph's scheduler's: at most four live members of one
// wave group.
type Config struct {
	// QueueDepth bounds the jobs admitted to compute and not yet answered,
	// queued in their graph's scheduler or riding a wave group (default
	// 64). Submissions beyond it fail fast with ErrOverloaded; cache hits
	// and coalesced followers do not count.
	QueueDepth int
	// CacheEntries bounds the result LRU (default 256; negative disables).
	CacheEntries int
	// DefaultTimeout applies to requests without an explicit deadline;
	// 0 means no deadline.
	DefaultTimeout time.Duration
	// TraceJobs, when positive, records a request-scoped engine trace for
	// each computed job and retains the Chrome trace_event JSON of the most
	// recent TraceJobs jobs, served at /debug/trace/{id}. 0 disables
	// tracing.
	TraceJobs int
	// Incremental, when true, retains completed BFS/CC state on mutable
	// graphs and serves `incremental: true` requests by delta-expansion
	// from it (falling back to a full run, and counting it, whenever
	// exactness cannot be guaranteed or the algorithm retains nothing).
	// Results are byte-identical to from-scratch recompute either way.
	Incremental bool
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	return c
}

// Request names one algorithm invocation.
type Request struct {
	Graph  string `json:"graph"`
	Algo   string `json:"algo"`
	Params Params `json:"params"`
	// Timeout bounds the wait for a wave group; 0 inherits
	// Config.DefaultTimeout, negative means no deadline.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Incremental asks the server to answer from retained epoch state via
	// delta-expansion when it can (bfs and cc on Config.Incremental graphs);
	// a request it cannot serve that way is a full run counted as a
	// fallback. The result is byte-identical to a full recompute; the flag
	// only changes how much of the graph is re-streamed.
	Incremental bool `json:"incremental,omitempty"`
}

// Result is a completed job's immutable answer. Cached results are shared
// between jobs; callers must not mutate Output.
type Result struct {
	Graph  string `json:"graph"`
	Algo   string `json:"algo"`
	Params Params `json:"params"`
	// Metrics are the run's engine measurements (virtual elapsed time,
	// pages streamed, MTEPS, ...).
	Metrics gts.Metrics `json:"metrics"`
	// Output is the algorithm's public result struct (*gts.BFSResult,
	// *gts.PageRankResult, ...), exactly what the matching gts.System
	// method returned.
	Output any `json:"output"`
	// Wall is the compute time of the run that produced this result.
	Wall time.Duration `json:"wall"`
}

// Server is the concurrent analytics service. Create with New, populate
// with AddGraph/LoadGraph, submit with Submit (async) or Run (sync), and
// stop with Shutdown.
type Server struct {
	cfg    Config
	cache  *resultCache
	met    *metrics
	traces *traceStore // nil when Config.TraceJobs == 0

	mu     sync.Mutex // graphs, scheds, jobs, inflight, nextID, nextGen, closed
	graphs map[string]*graphEntry
	// scheds holds each graph name's wave-group scheduler, made at the
	// name's first publish and closed only by Shutdown.
	scheds   map[string]*sched.Scheduler
	jobs     map[string]*Job
	jobOrder []*Job
	// inflight maps a cache key to the queued or running job computing it;
	// identical concurrent submissions coalesce behind it (single-flight).
	// Its size is what QueueDepth bounds.
	inflight map[string]*Job
	nextID   uint64
	nextGen  uint64
	closed   bool

	running sync.WaitGroup // execute and coalesced-job mirror goroutines
}

// New makes a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheEntries),
		met:      newMetrics(),
		graphs:   make(map[string]*graphEntry),
		scheds:   make(map[string]*sched.Scheduler),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
	if cfg.TraceJobs > 0 {
		s.traces = newTraceStore(cfg.TraceJobs)
	}
	return s
}

// Submit validates req and either answers it from the cache (the returned
// job is already done), coalesces it behind an identical job in flight,
// admits it — starting its execute, which hands it to the graph's scheduler
// — or rejects it with ErrOverloaded. The graph lookup, the cache lookup,
// the single-flight check and the admission happen in one hold of s.mu: a
// leader puts its result in the cache before it leaves the single-flight
// table, so an identical request finds one or the other and never queues
// behind an answer that already exists. The returned Job is also queryable
// via Lookup until evicted from the history.
func (s *Server) Submit(req Request) (*Job, error) {
	algo, ok := gts.LookupAlgorithm(req.Algo)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownAlgo, req.Algo, gts.Algorithms())
	}
	var err error
	if req.Params, err = algo.Normalize(req.Params); err != nil {
		return nil, err
	}

	// Admission happens under the lock too, so Shutdown cannot start waiting
	// between the closed check and the new goroutine.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	entry, ok := s.graphs[req.Graph]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, req.Graph)
	}
	if st := entry.state.load(); st != GraphServing {
		return nil, fmt.Errorf("%w: %q is %s", ErrGraphNotReady, req.Graph, st)
	}
	s.nextID++
	job := &Job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		req:       req,
		key:       cacheKey(entry.name, entry.gen, entry.epoch, req.Algo, req.Params),
		entry:     entry,
		algo:      algo,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if res, ok := s.cache.get(job.key); ok {
		s.met.addSubmitted()
		s.answer(job, res, true)
		s.rememberLocked(job)
		return job, nil
	}

	timeout := req.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}
	job.ctx, job.cancel = context.Background(), context.CancelFunc(func() {})
	if timeout > 0 {
		job.ctx, job.cancel = context.WithTimeout(context.Background(), timeout)
	}
	// Single-flight: an identical request already queued or running becomes
	// this job's leader; the follower is not admitted, it mirrors the
	// leader's outcome when it lands.
	if leader, ok := s.inflight[job.key]; ok {
		s.rememberLocked(job)
		s.met.addSubmitted()
		s.met.addCoalesced()
		s.running.Add(1)
		go func() {
			defer s.running.Done()
			s.mirror(job, leader)
		}()
		return job, nil
	}
	if len(s.inflight) >= s.cfg.QueueDepth {
		s.met.addRejected()
		job.cancel()
		return nil, ErrOverloaded
	}
	s.inflight[job.key] = job
	s.rememberLocked(job)
	s.met.addSubmitted()
	s.running.Add(1)
	go func() {
		defer s.running.Done()
		s.execute(job)
	}()
	return job, nil
}

// mirror completes a coalesced follower with its leader's outcome (or a
// timeout if the follower's own deadline expires first).
func (s *Server) mirror(job, leader *Job) {
	defer job.cancel()
	select {
	case <-leader.Done():
	case <-job.ctx.Done():
		s.met.addTimedOut()
		job.fail(fmt.Errorf("%w (coalesced behind %s)", ErrTimeout, leader.id), JobTimedOut)
		return
	}
	res, err := leader.Result()
	if err != nil {
		s.met.addFailed()
		job.fail(fmt.Errorf("coalesced behind %s: %w", leader.id, err), JobFailed)
		return
	}
	s.answer(job, res, true)
}

// clearInflight drops the single-flight registration once the leader
// reaches a terminal state, so later identical submissions go through the
// cache (or recompute) instead of chaining onto a finished job.
func (s *Server) clearInflight(job *Job) {
	s.mu.Lock()
	if s.inflight[job.key] == job {
		delete(s.inflight, job.key)
	}
	s.mu.Unlock()
}

// Run submits req and waits for the job to finish or ctx to expire. On
// success the returned job is done; on error the job (when non-nil) may
// still complete in the background.
func (s *Server) Run(ctx context.Context, req Request) (*Job, error) {
	job, err := s.Submit(req)
	if err != nil {
		return nil, err
	}
	select {
	case <-job.Done():
		return job, job.Err()
	case <-ctx.Done():
		return job, ctx.Err()
	}
}

// Lookup returns a submitted job by ID while it remains in the bounded
// history.
func (s *Server) Lookup(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return job, nil
}

// rememberLocked registers a job in the history, evicting the oldest
// finished jobs beyond the cap. Unfinished jobs are never evicted (their
// count is bounded by QueueDepth).
func (s *Server) rememberLocked(job *Job) {
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job)
	for len(s.jobs) > jobHistory {
		evicted := false
		for i, old := range s.jobOrder {
			select {
			case <-old.Done():
				delete(s.jobs, old.id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			break
		}
	}
}

// Shutdown stops admissions, waits for the admitted jobs to finish or ctx
// to expire, then closes the graphs' schedulers. Safe to call more than
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.running.Wait()
		// Close the per-graph wave-group schedulers after the jobs: none is
		// left to submit into them, and no publish adds one once the server
		// is closed.
		for _, sc := range s.scheds {
			sc.Close()
		}
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown interrupted with jobs in flight: %w", ctx.Err())
	}
}

// Close is Shutdown without a deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }
