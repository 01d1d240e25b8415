package service

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	gts "repro"
)

// GraphState is a registered graph's serving condition, reported by
// /healthz and gating /readyz.
type GraphState int32

// Graph states.
const (
	// GraphLoading: the base graph is being opened/generated and its System
	// built.
	GraphLoading GraphState = iota
	// GraphRecovering: the WAL's committed batches are being replayed onto
	// the base graph.
	GraphRecovering
	// GraphServing: queries are admitted.
	GraphServing
	// GraphDegraded: an ingest crash (or a failed System rebuild) left the
	// graph read-only-at-best; reload to recover.
	GraphDegraded
)

// String names the state for /healthz JSON.
func (g GraphState) String() string {
	switch g {
	case GraphLoading:
		return "loading"
	case GraphRecovering:
		return "recovering"
	case GraphServing:
		return "serving"
	default:
		return "degraded"
	}
}

// graphEntry is one registered graph with the System that runs its jobs
// (and carries its Config). Entries are immutable after publication except
// for state; a mutation publishes a whole new entry (a new System over the
// new snapshot, same MutableGraph), so jobs holding an old entry keep
// computing against the consistent old snapshot.
type graphEntry struct {
	name  string
	gen   uint64 // load generation, part of the cache key
	epoch uint64 // mutation epoch (last applied WAL LSN), part of the cache key
	sys   *gts.System
	// run is the name's run token, which a job holds while it runs on sys
	// (see Server.run), so the name's jobs run one at a time, in arrival
	// order (nil only on a placeholder entry that is still loading).
	run chan struct{}
	// mg is the mutable backing (nil for immutable graphs); its Delta is
	// the commit chain incremental recompute replays priors along, and a
	// reload opens a new one whose chain starts empty. commit, carried with
	// mg from entry to entry, serializes ingest's commit + republish: the
	// registry's epoch and the WAL's advance together.
	mg     *gts.MutableGraph
	commit *sync.Mutex
	state  atomicState
}

// retains reports whether e's bfs and cc jobs plan from their priors: the
// server is incremental and the graph is mutable.
func (s *Server) retains(e *graphEntry) bool { return s.cfg.Incremental && e.mg != nil }

// atomicState is a small typed wrapper over the entry's state word.
type atomicState struct{ v int32 }

func (a *atomicState) load() GraphState { return GraphState(atomic.LoadInt32(&a.v)) }
func (a *atomicState) store(s GraphState) {
	atomic.StoreInt32(&a.v, int32(s))
}

// GraphInfo describes a registered graph for listings.
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices uint64 `json:"vertices"`
	Edges    uint64 `json:"edges"`
	// PoolBytes is the budget of the graph's shared host page pool — the
	// single pinned buffer its runs stream through. Zero when every run
	// builds a private buffer (or the graph is in memory).
	PoolBytes int64 `json:"pool_bytes,omitempty"`
	// State is the serving state ("loading"/"recovering"/"serving"/
	// "degraded"); Mutable and Epoch describe WAL-backed graphs.
	State   string `json:"state"`
	Mutable bool   `json:"mutable,omitempty"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// publish puts next, which must have its System, into service: it gets its
// name's run token, made at the name's first publish, and becomes the entry
// under its name. Jobs holding the entry it replaces still take turns on that
// token, on their own System. With old non-nil the swap happens only while
// old is still the registered entry.
func (s *Server) publish(next, old *graphEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShuttingDown
	}
	if old != nil && s.graphs[next.name] != old {
		return fmt.Errorf("%w: %q was reloaded meanwhile", ErrGraphNotReady, next.name)
	}
	if s.runs[next.name] == nil {
		s.runs[next.name] = make(chan struct{}, 1)
	}
	next.run = s.runs[next.name]
	next.state.store(GraphServing)
	s.graphs[next.name] = next
	return nil
}

// AddGraph registers a pre-built System under name. The System's graph
// must not be mutated afterwards (slotted-page graphs are immutable once
// built). Re-registering a name replaces the previous graph and, via the
// generation in the cache key, implicitly invalidates its cached results.
func (s *Server) AddGraph(name string, sys *gts.System) error {
	if name == "" || sys == nil {
		return fmt.Errorf("service: AddGraph needs a name and a System")
	}
	s.mu.Lock()
	s.nextGen++
	gen := s.nextGen
	s.mu.Unlock()
	return s.publish(&graphEntry{name: name, gen: gen, sys: sys}, nil)
}

// LoadMutableGraph opens spec as a crash-recoverable mutable graph whose
// mutation history lives in the WAL at walPath (created if absent, replayed
// if present), builds a System with engineCfg over the recovered snapshot,
// and registers it under name. While the load runs the graph is visible to
// Health as "loading" (fresh WAL) or "recovering" (non-empty WAL) and
// rejects jobs with ErrGraphNotReady; it is "serving" once the System is up.
// The trailing int, once an engine-pool width, is ignored: the benchmark
// module still passes one.
func (s *Server) LoadMutableGraph(name, spec, walPath string, engineCfg gts.Config, _ int) error {
	if name == "" || spec == "" || walPath == "" {
		return fmt.Errorf("service: LoadMutableGraph needs a name, a spec and a WAL path")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrShuttingDown
	}
	s.nextGen++
	placeholder := &graphEntry{name: name, gen: s.nextGen}
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > 0 {
		placeholder.state.store(GraphRecovering)
	} else {
		placeholder.state.store(GraphLoading)
	}
	s.graphs[name] = placeholder
	s.mu.Unlock()

	fail := func(err error) error {
		s.mu.Lock()
		if s.graphs[name] == placeholder {
			delete(s.graphs, name)
		}
		s.mu.Unlock()
		return err
	}
	mg, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{Faults: engineCfg.Faults})
	if err != nil {
		return fail(err)
	}
	sys, err := gts.NewSystem(mg.Snapshot(), engineCfg)
	if err != nil {
		mg.Close()
		return fail(err)
	}
	entry := &graphEntry{name: name, gen: placeholder.gen, epoch: mg.Epoch(), sys: sys, mg: mg, commit: new(sync.Mutex)}
	if err := s.publish(entry, placeholder); err != nil {
		mg.Close()
		return fail(err)
	}
	return nil
}

// Ingest commits one batch of edge mutations against a mutable graph:
// WAL-append + fsync, apply, then republish the graph at its new epoch —
// a fresh System over the new snapshot sharing the old host page pool
// (stale frames invalidated via AdvanceEpoch) and a new cache-key epoch so
// no stale result or old-epoch leader can serve new-epoch jobs. The graph's
// run token stays, so jobs of the two epochs still run one at a time.
// Concurrent ingests on one graph take turns through commit + republish, so
// every acknowledged batch is in the published snapshot.
func (s *Server) Ingest(name string, ops []gts.EdgeOp) (epoch uint64, err error) {
	entry, err := s.ingestTarget(name)
	if err != nil {
		return 0, err
	}
	// Take the graph's commit lock, then read the entry again: the one read
	// above may have been republished by the ingest that held the lock.
	commit := entry.commit
	commit.Lock()
	defer commit.Unlock()
	if entry, err = s.ingestTarget(name); err != nil {
		return 0, err
	}
	if entry.commit != commit {
		return 0, fmt.Errorf("%w: %q was reloaded meanwhile", ErrGraphNotReady, name)
	}
	epoch, err = entry.mg.Ingest(ops)
	if err != nil {
		s.met.addIngestFailure()
		if errors.Is(err, gts.ErrCrashed) {
			entry.state.store(GraphDegraded)
		}
		return 0, err
	}
	s.met.addIngested(int64(len(ops)))

	// Invalidate the shared host pool's superseded frames and publish a new
	// entry over the new snapshot.
	cfg := entry.sys.Config() // carries the shared host pool, if any, across the rebuild
	if cfg.HostPool != nil {
		cfg.HostPool.AdvanceEpoch()
	}
	sys, serr := gts.NewSystem(entry.mg.Snapshot(), cfg)
	if serr != nil {
		entry.state.store(GraphDegraded)
		return epoch, fmt.Errorf("service: batch %d committed but System rebuild failed: %w", epoch, serr)
	}
	next := &graphEntry{name: name, gen: entry.gen, epoch: epoch, sys: sys, mg: entry.mg, commit: commit}
	// A server that closed meanwhile serves no more queries; the batch is
	// durable all the same, so the ingest still succeeded.
	if err := s.publish(next, entry); err != nil && !errors.Is(err, ErrShuttingDown) {
		return epoch, fmt.Errorf("service: batch %d committed but not published: %w", epoch, err)
	}
	return epoch, nil
}

// ingestTarget looks up the entry an ingest on name would commit against.
func (s *Server) ingestTarget(name string) (*graphEntry, error) {
	s.mu.Lock()
	entry, ok := s.graphs[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	if entry.mg == nil {
		return nil, fmt.Errorf("%w: %q", ErrImmutableGraph, name)
	}
	if st := entry.state.load(); st != GraphServing {
		return nil, fmt.Errorf("%w: %q is %s", ErrGraphNotReady, name, st)
	}
	return entry, nil
}

// GraphHealth is one graph's /healthz row.
type GraphHealth struct {
	Name  string `json:"name"`
	State string `json:"state"`
	Epoch uint64 `json:"epoch"`
	// Mutable reports whether the graph accepts ingest.
	Mutable bool `json:"mutable"`
	// ReplayedBatches is how many committed WAL batches the load replayed.
	ReplayedBatches int `json:"replayed_batches,omitempty"`
	// Incremental reports whether the graph retains state for incremental
	// recompute; RetainedEntries counts its load's priors in the job table.
	Incremental     bool `json:"incremental,omitempty"`
	RetainedEntries int  `json:"retained_entries,omitempty"`
}

// Health reports every registered graph's serving state, sorted by name.
func (s *Server) Health() []GraphHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphHealth, 0, len(s.graphs))
	for _, e := range s.graphs {
		h := GraphHealth{Name: e.name, State: e.state.load().String(), Epoch: e.epoch, Mutable: e.mg != nil}
		if e.mg != nil {
			h.Epoch = e.mg.Epoch()
			h.ReplayedBatches = e.mg.ReplayedBatches()
		}
		if s.retains(e) {
			h.Incremental = true
			h.RetainedEntries = s.retained(e)
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ready reports whether every registered graph is serving (readiness: a
// server with no graphs is ready; one mid-recovery or degraded is not).
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.graphs {
		if e.state.load() != GraphServing {
			return false
		}
	}
	return true
}

// LoadRequest is the one graph-configuration document: the PUT
// /v1/graphs/{name} body, and what gtsd's -load name=@file.json decodes.
// Unknown keys are ignored, so a body with a retired field (such as "pool"
// or "host_workers") still loads.
type LoadRequest struct {
	// Spec is a gts.Open graph spec: a .gts store file or "dataset[@shrink]".
	Spec string `json:"spec"`
	// GPUs, Strategy ("p"|"s"), Streams, Storage ("mem"|"ssd"|"hdd") and
	// PoolBytes (a shared host page pool on storage; 0: a private one per
	// run) are the gts.Config fields of the same names.
	GPUs      int    `json:"gpus,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Streams   int    `json:"streams,omitempty"`
	Storage   string `json:"storage,omitempty"`
	PoolBytes int64  `json:"pool_bytes,omitempty"`
	// Faults arms fault injection on the graph's runs and WAL (chaos testing).
	Faults *gts.FaultPlan `json:"faults,omitempty"`
	// WAL, when set, loads the graph as mutable over the write-ahead log at
	// this path (see LoadMutableGraph): it accepts POST .../ingest.
	WAL string `json:"wal,omitempty"`
}

// config translates the document into the engine configuration it names; a
// document with no spec, or a value its field cannot take, is gts.ErrInvalid.
func (d LoadRequest) config() (gts.Config, error) {
	strategy, serr := gts.ParseStrategy(d.Strategy)
	storage, perr := gts.ParseStorage(d.Storage)
	err := errors.Join(serr, perr, d.Faults.Validate())
	if d.Spec == "" {
		err = errors.Join(errors.New(`a load document needs a "spec"`), err)
	}
	if err != nil {
		return gts.Config{}, fmt.Errorf("%w: %w", gts.ErrInvalid, err)
	}
	return gts.Config{GPUs: d.GPUs, Streams: d.Streams, Strategy: strategy, Storage: storage,
		PoolBytes: d.PoolBytes, Faults: d.Faults}, nil
}

// Load builds the graph doc describes and registers it under name (mutable
// when doc names a WAL). PUT /v1/graphs/{name} and gtsd's -load both use it.
func (s *Server) Load(name string, doc LoadRequest) error {
	cfg, err := doc.config()
	if err != nil {
		return err
	}
	if doc.WAL != "" {
		return s.LoadMutableGraph(name, doc.Spec, doc.WAL, cfg, 0)
	}
	g, err := gts.Open(doc.Spec)
	if err != nil {
		return err
	}
	sys, err := gts.NewSystem(g, cfg)
	if err != nil {
		return err
	}
	return s.AddGraph(name, sys)
}

// Graphs lists the registered graphs, sorted by name.
func (s *Server) Graphs() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		info := GraphInfo{Name: e.name, State: e.state.load().String(), Mutable: e.mg != nil, Epoch: e.epoch}
		if e.sys != nil { // placeholder entries mid-load have no System yet
			g := e.sys.Graph()
			info.Vertices, info.Edges = g.NumVertices(), g.NumEdges()
			if hp := e.sys.HostPool(); hp != nil {
				info.PoolBytes = hp.Budget()
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
