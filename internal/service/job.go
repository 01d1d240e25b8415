package service

import (
	"container/list"
	"context"
	"sync"
	"time"

	gts "repro"
)

// JobState is a job's lifecycle position.
type JobState int32

// Job states.
const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobTimedOut
)

// String names the state for JSON and logs.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return "timedout"
	}
}

// Job tracks one submission through the queue. All accessors are safe for
// concurrent use. A finished job owns its result, not its graph: the job
// table outlives many ingest epochs, and an entry kept here would keep its
// whole snapshot alive with it.
type Job struct {
	id        string
	req       Request // normalized params
	key       string
	entry     *graphEntry // what execute runs against; nil once finished
	algo      gts.Algorithm
	ctx       context.Context // the deadline; nil (with cancel) on a cache hit at admission
	cancel    context.CancelFunc
	submitted time.Time

	mu       sync.Mutex
	state    JobState
	cached   bool
	result   *Result
	err      error
	finished time.Time
	done     chan struct{}

	// Set under the Server's mu as the job finishes: its Chrome trace (if it
	// ran traced), its job-table recency slot and charge.
	trace  []byte
	lru    *list.Element
	charge int64

	// The job's snapshot epoch and prior key (incremental.go) and, once its
	// own run answers it, the pages a full run of its request touched.
	epoch     uint64
	prior     priorKey
	fullPages int64
}

// ID returns the job's server-unique identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submission with normalized parameters.
func (j *Job) Request() Request { return j.req }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle position.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Cached reports whether the answer came from the result cache.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Result returns the answer (nil until done) and the terminal error, if
// any.
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Err returns the terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Latency returns submission-to-finish wall time (0 until done).
func (j *Job) Latency() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.submitted)
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

func (j *Job) complete(res *Result, cached bool, at time.Time) {
	j.mu.Lock()
	j.state = JobDone
	j.result = res
	j.cached = cached
	j.finished = at
	j.entry = nil
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) fail(err error, state JobState) {
	j.mu.Lock()
	j.state = state
	j.err = err
	j.finished = time.Now()
	j.entry = nil
	j.mu.Unlock()
	close(j.done)
}
