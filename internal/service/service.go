// Package service is the concurrent analytics layer over the GTS engine:
// a long-lived Server that holds named, pre-loaded slotted-page graphs
// (each run by one gts.System), admits a bounded number of algorithm jobs
// with per-job deadlines and runs each alone on its graph's System, one job
// at a time per graph in arrival order, keeps finished jobs and their
// answers in one job table bounded in bytes — the service-level analogue of
// the engine's cachedPIDMap, whose pages live in spare device memory as
// answers live here in spare host memory — and exports queue/cache/latency
// metrics. cmd/gtsd wraps it in an HTTP daemon; it is equally usable
// in-process (see ServiceBench in the root package's benchmarks).
//
// Lifecycle of a job: Submit normalizes the request through gts's algorithm
// table and looks its key up in the job table — a finished entry completes
// the job immediately (a cache hit); an unfinished one is an identical job
// in flight, which the new job coalesces behind; otherwise the job is
// admitted or, if QueueDepth admitted jobs are still unanswered, rejected
// with ErrOverloaded. An admitted job goes through the one execute pipeline
// (execute.go) on a goroutine of its own: kernel resolution (on a
// Config.Incremental server a bfs or cc job on a mutable graph plans from
// its request's prior, incremental.go; no request setting selects it), the
// wait for the graph's run token — the one queue, where the job waits until
// the graph's previous job has run, and which drops a job whose deadline
// expires there — the run, then error classification and accounting. Runs are not
// preempted: a deadline that expires mid-run does not cancel the engine, it
// only stops the job's wait for it.
//
// Retention: every job stays in the job table, queryable by ID (and, once
// answered, by key as the cached answer), until evicted. Each finished job
// is charged for its output's vectors and per-level metrics, its trace and a
// fixed per-entry cost; when a job finishes, the least recently used
// finished jobs go while the charge exceeds jobTableBytes, except the
// QueueDepth most recently used. An evicted job is forgotten whole: GET
// /v1/jobs/{id} and /debug/trace/{id} answer 404, its request is
// recomputed, and the incremental prior it was (incremental.go) is gone.
//
// The package is laid out along that path: service.go (admission: Submit,
// the job table, Shutdown), job.go (the Job handle), graphs.go (the graph
// registry: load, ingest, health), execute.go (the pipeline), incremental.go
// and algos.go (retained state), metrics.go and http.go.
package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	gts "repro"
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

// jobTableBytes bounds what the job table charges its finished jobs (see
// finishLocked). 16 MiB holds 128 of the 128 KB BFS outputs of the serve-live
// benchmark's RMAT27@11 graph: about eight rounds of its traffic, and twice
// the default QueueDepth, so an async burst is polled before it ages out.
const jobTableBytes = 16 << 20

// jobEntryBytes is the fixed charge of a finished job: what it keeps beyond
// resultBytes, measured (TestJobEntryCost) at ≈ 1.7 KB computed with a
// deadline and ≈ 0.6 KB as a cache hit, with room for longer keys and errors.
const jobEntryBytes = 4 << 10

// Config sizes a Server. The zero value is serviceable: 64 jobs admitted at
// a time, no default deadline, no tracing. Each graph runs one job at a
// time.
type Config struct {
	// QueueDepth bounds the jobs admitted to compute and not yet answered,
	// queued for their graph or running on it (default 64). Submissions
	// beyond it fail fast with ErrOverloaded; cache hits and coalesced
	// followers do not count. The job table also never evicts one of the
	// QueueDepth most recently used finished jobs.
	QueueDepth int
	// DefaultTimeout applies to requests without an explicit deadline;
	// 0 means no deadline.
	DefaultTimeout time.Duration
	// Trace, when true, records a request-scoped engine trace for each
	// computed job and keeps its Chrome trace_event JSON on the job, served
	// at /debug/trace/{id} while the job stays in the job table.
	Trace bool
	// Incremental, when true, makes each bfs or cc request on a mutable
	// graph plan from its prior along the graph's commit chain
	// (gts.MutableGraph.Delta): it runs by
	// delta-expansion from the request's newest answered run, or in full,
	// counted as a fallback, when exactness cannot be guaranteed. Results
	// are byte-identical to from-scratch recompute either way.
	Incremental bool
}

// Request names one algorithm invocation.
type Request struct {
	Graph  string `json:"graph"`
	Algo   string `json:"algo"`
	Params Params `json:"params"`
	// Timeout bounds the wait for the job's answer; 0 inherits
	// Config.DefaultTimeout, negative means no deadline.
	Timeout time.Duration `json:"timeout,omitempty"`
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
	cfg Config
	met *metrics

	mu     sync.Mutex // graphs, runs, the job table, nextID, nextGen, closed
	graphs map[string]*graphEntry
	// runs holds each graph name's run token (graphEntry.run), made at the
	// name's first publish and kept for the server's life.
	runs map[string]chan struct{}

	// The job table. byID holds every job until it is evicted; byKey each
	// cache key's leader: unfinished, the single-flight leader identical
	// submissions coalesce behind; finished, the cached answer. lru orders
	// the finished jobs, most recently used first; charge is what they are
	// charged against budget. leaders counts the unfinished leaders.
	byID     map[string]*Job
	byKey    map[string]*Job
	lru      list.List
	charge   int64
	budget   int64 // jobTableBytes; tests shrink it
	leaders  int
	uncached bool // tests: finished leaders leave byKey, so nothing hits
	// priors indexes each retaining request's newest answered run (see
	// incremental.go). It owns nothing: a job leaves it as the table evicts it.
	priors map[priorKey]*Job

	nextID  uint64
	nextGen uint64
	closed  bool

	running sync.WaitGroup // execute, engine-run and coalesced-job mirror goroutines
}

// New makes a Server.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	return &Server{
		cfg:    cfg,
		met:    newMetrics(),
		graphs: make(map[string]*graphEntry),
		runs:   make(map[string]chan struct{}),
		byID:   make(map[string]*Job),
		byKey:  make(map[string]*Job),
		priors: make(map[priorKey]*Job),
		budget: jobTableBytes,
	}
}

// cacheKey canonicalizes a request into the string that keys the job table's
// byKey index, the cached answers and single-flight both: graph name, the
// graph's load generation (re-loading a name invalidates stale entries), the
// graph's mutation epoch (an ingested batch invalidates stale entries and
// prevents a new-epoch job from coalescing behind an old-epoch leader),
// algorithm, and the normalized parameters.
func cacheKey(graph string, gen, epoch uint64, algo string, p Params) string {
	buf, _ := json.Marshal(p) // Params marshals deterministically (fixed field order)
	return fmt.Sprintf("%s#%d@%d/%s?%s", graph, gen, epoch, algo, buf)
}

// Submit validates req and looks its key up in the job table: a finished
// leader answers it at once (the returned job is already done), an
// unfinished one is an identical job in flight it coalesces behind;
// otherwise it is admitted — starting its execute, which queues it for the
// graph's run token — or rejected with ErrOverloaded. All of that happens in
// one hold of s.mu, and a leader turns into the cached answer in one hold of
// it too, so an identical request never queues behind an answer that
// already exists. The job is queryable via Lookup until evicted.
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
		epoch:     entry.epoch,
		prior:     priorKey{entry.gen, req.Algo, req.Params},
		algo:      algo,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	leader := s.byKey[job.key]
	hit := leader != nil && leader.lru != nil // a finished leader: the cached answer
	if leader == nil && s.leaders >= s.cfg.QueueDepth {
		s.met.addRejected()
		return nil, ErrOverloaded
	}
	s.byID[job.id] = job
	s.met.addSubmitted(hit)
	if hit {
		res, _ := leader.Result()
		s.answer(job, res, true)
		s.finishLocked(job)
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
	if leader != nil {
		s.met.addCoalesced()
		s.running.Add(1)
		go func() {
			defer s.running.Done()
			s.mirror(job, leader)
		}()
		return job, nil
	}
	s.leaders++
	s.byKey[job.key] = job
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
		s.finish(job, func() { job.fail(fmt.Errorf("%w (coalesced behind %s)", ErrTimeout, leader.id), JobTimedOut) })
		return
	}
	res, err := leader.Result()
	if err != nil {
		s.met.addFailed()
		s.finish(job, func() { job.fail(fmt.Errorf("coalesced behind %s: %w", leader.id, err), JobFailed) })
		return
	}
	s.finish(job, func() { s.answer(job, res, true) })
}

// finish takes job to its terminal state with end and enters it in the table
// as finished, in one hold of s.mu.
func (s *Server) finish(job *Job, end func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	end()
	s.finishLocked(job)
}

// finishLocked puts job, just finished, at the front of the recency list. A
// leader stops leading: it stays in byKey as the cached answer if it has one.
// A job answered from a finished leader (a cache hit, or a follower) uses the
// leader's entry, which moves to the front ahead of it. The job is charged
// for its result (a hit or a follower again for the one it shares, an
// over-count), its trace and jobEntryBytes. Then the least recently used
// finished jobs go while the charge exceeds the budget, but never one of the
// QueueDepth most recently used, so a full queue of async jobs can still be
// polled. An evicted job is forgotten whole (its ID, trace and key), and
// nothing on the Job changes: a handler that holds it writes its whole answer.
func (s *Server) finishLocked(job *Job) {
	res, _ := job.Result()
	if s.byKey[job.key] == job {
		s.leaders--
		if res == nil || s.uncached {
			delete(s.byKey, job.key)
		}
	}
	job.charge = jobEntryBytes + int64(len(job.trace))
	if res != nil {
		job.charge += resultBytes(res)
	}
	job.lru = s.lru.PushFront(job)
	if leader := s.byKey[job.key]; leader != nil && leader != job && leader.lru != nil {
		s.lru.MoveToFront(leader.lru)
	}
	s.charge += job.charge
	for s.charge > s.budget && s.lru.Len() > s.cfg.QueueDepth {
		old := s.lru.Remove(s.lru.Back()).(*Job)
		s.charge -= old.charge
		delete(s.byID, old.id)
		if s.byKey[old.key] == old {
			delete(s.byKey, old.key)
		}
		if s.priors[old.prior] == old {
			delete(s.priors, old.prior)
		}
	}
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

// Lookup returns a submitted job by ID while it remains in the job table.
func (s *Server) Lookup(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return job, nil
}

// ErrNoTrace reports a trace query the server cannot answer: tracing is
// disabled, the job was never traced (cache hit, timed out in queue), or it
// was evicted from the job table.
var ErrNoTrace = fmt.Errorf("service: no trace for job")

// JobTrace returns the Chrome trace_event JSON recorded for a computed
// job, if tracing is enabled and the job is still in the job table.
func (s *Server) JobTrace(id string) ([]byte, error) {
	if !s.cfg.Trace {
		return nil, fmt.Errorf("%w: tracing disabled (Config.Trace)", ErrNoTrace)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if job, ok := s.byID[id]; ok && job.trace != nil {
		return job.trace, nil
	}
	return nil, fmt.Errorf("%w %q", ErrNoTrace, id)
}

// Shutdown stops admissions and waits for the admitted jobs and their runs
// to finish or ctx to expire. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.running.Wait()
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
