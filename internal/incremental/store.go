// Package incremental retains per-graph algorithm state across ingest
// epochs and re-executes BFS, CC, and PageRank from the delta instead of
// from scratch. The contract is exactness, not approximation: every
// incremental run must produce output byte-identical to a from-scratch
// recompute on the new snapshot, clean or faulted. Where that cannot be
// guaranteed (tight deletes under BFS, any delete under CC, vertex growth
// under PageRank, ...) the planner refuses and the caller falls back to a
// full run.
//
// The machinery has three parts:
//
//   - Store: retained entries from completed runs, keyed by
//     (algo, params) and stamped with the epoch they were computed at,
//     plus the chain of ingest commits (ops + pre-image adjacency of the
//     touched sources) needed to replay any retained epoch forward to the
//     current one.
//   - Delta: the flattened difference between a retained entry's epoch and
//     the current epoch, handed to a planner.
//   - Planners (PlanBFS, PlanCC, PlanPageRank): decide safe vs fallback
//     and build a FrontierKernel seeded from the delta.
package incremental

import (
	"sync"

	"repro/internal/slottedpage"
)

// EdgeOp aliases the slotted-page ingest op: one edge insert or delete.
type EdgeOp = slottedpage.EdgeOp

// Kind labels which algorithm an Entry retains state for.
type Kind uint8

// Entry kinds.
const (
	KindBFS Kind = iota
	KindCC
	KindPageRank
)

func (k Kind) String() string {
	switch k {
	case KindBFS:
		return "bfs"
	case KindCC:
		return "cc"
	case KindPageRank:
		return "pagerank"
	}
	return "unknown"
}

// Entry is the retained state of one completed run: the final attribute
// arrays plus the convergence metadata a later incremental run needs.
// Entries are immutable once stored; slices they hold must never be
// written again (incremental PageRank shares unpatched trajectory levels
// between successive entries on this basis).
type Entry struct {
	Kind  Kind
	Epoch uint64 // snapshot epoch the run computed against

	// BFS: final levels (-1 unreached) and the source vertex.
	Levels []int16
	Source uint64

	// CC: final component labels.
	Labels []uint32

	// PageRank: the full per-iteration trajectory, Traj[0] = uniform
	// start vector, Traj[i] = ranks after iteration i, plus the params
	// that produced it. Retaining the trajectory (not just the final
	// ranks) is what makes incremental PageRank byte-exact: the delta
	// cone re-derives only deviated entries per iteration and copies the
	// rest bitwise.
	Traj       [][]float32
	Damping    float64
	Iterations int

	// FullPages is the page-scan cost of a from-scratch run of this
	// (algo, params) — carried forward through incremental captures so
	// saved-supersteps accounting always compares against full cost.
	FullPages int64
}

// Delta is the flattened edge difference between a retained entry's epoch
// and the store's current epoch: every op of every intervening commit, in
// commit order, plus the pre-image out-adjacency (at the entry's epoch)
// of each touched source and the entry-epoch vertex count.
type Delta struct {
	FromEpoch uint64
	ToEpoch   uint64
	Ops       []EdgeOp
	// OldAdj maps each distinct op source to its out-neighbor list at
	// FromEpoch (first-occurrence pre-image across the commit chain).
	OldAdj map[uint64][]uint64
	// OldNumVertices is the vertex count at FromEpoch.
	OldNumVertices uint64
}

// commit is one applied ingest batch: the epoch edge it spans and enough
// pre-image to extend any older delta across it.
type commit struct {
	prev, epoch uint64
	ops         []EdgeOp
	oldAdj      map[uint64][]uint64 // pre-image adjacency of op sources at prev
	oldNumVerts uint64
}

// Store holds the retained entries and the commit chain for one graph.
// A Store is bound to one uninterrupted epoch lineage: the service builds
// a fresh Store on every graph (re)load, so recovered-from-crash graphs
// can never consult pre-crash state even when the recovered epoch counter
// happens to collide.
type Store struct {
	mu       sync.Mutex
	epoch    uint64
	chain    []commit // ascending by epoch, contiguous
	maxChain int
	entries  map[string]*Entry

	hits      uint64
	fallbacks uint64
	saved     uint64
}

// DefaultMaxChain bounds how many ingest commits the store retains;
// entries older than the chain can no longer be replayed forward and are
// dropped.
const DefaultMaxChain = 64

// NewStore builds an empty store anchored at the graph's current epoch.
func NewStore(epoch uint64) *Store {
	return &Store{epoch: epoch, maxChain: DefaultMaxChain, entries: make(map[string]*Entry)}
}

// Epoch returns the current (latest committed) epoch the store tracks.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Commit records one applied ingest batch. old is the pre-commit snapshot
// (the graph the retained entries at prev were computed against); the
// store captures the out-adjacency of every op source from it so PageRank
// deltas can find targets that lost an edge. If prev does not extend the
// store's lineage (a commit was missed), all retained state is dropped —
// never serve across a gap.
func (s *Store) Commit(prev, epoch uint64, ops []EdgeOp, old *slottedpage.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != s.epoch {
		s.chain = nil
		s.entries = make(map[string]*Entry)
	}
	c := commit{
		prev:        prev,
		epoch:       epoch,
		ops:         append([]EdgeOp(nil), ops...),
		oldAdj:      make(map[uint64][]uint64),
		oldNumVerts: old.NumVertices(),
	}
	for _, op := range ops {
		if _, ok := c.oldAdj[op.Src]; ok {
			continue
		}
		var row []uint64
		if op.Src < old.NumVertices() {
			old.NeighborsOf(op.Src, func(dst uint64) { row = append(row, dst) })
		}
		c.oldAdj[op.Src] = row
	}
	s.chain = append(s.chain, c)
	if len(s.chain) > s.maxChain {
		s.chain = s.chain[len(s.chain)-s.maxChain:]
	}
	s.epoch = epoch
	// Drop entries that fell off the replayable window.
	floor := s.chain[0].prev
	for k, e := range s.entries {
		if e.Epoch < floor {
			delete(s.entries, k)
		}
	}
}

// Capture retains a completed run's state under key. The entry is
// accepted only if it was computed at the store's current epoch — a run
// that raced with an ingest commit is silently discarded (its epoch can
// no longer be trusted as "latest", and Lookup would have to replay it
// anyway).
func (s *Store) Capture(key string, e *Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Epoch != s.epoch {
		return false
	}
	s.entries[key] = e
	return true
}

// Lookup returns the retained entry for key and the flattened delta from
// its epoch to the current one. ok is false when no entry exists or the
// chain cannot replay it forward. An entry already at the current epoch
// returns an empty delta (zero ops) — a valid, trivially convergent plan.
func (s *Store) Lookup(key string) (*Entry, Delta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return nil, Delta{}, false
	}
	d := Delta{FromEpoch: e.Epoch, ToEpoch: s.epoch, OldAdj: make(map[uint64][]uint64)}
	if e.Epoch == s.epoch {
		return e, d, true // empty delta: entry is current
	}
	// Find the chain suffix starting at the entry's epoch and check it is
	// contiguous up to the current epoch.
	i := 0
	for ; i < len(s.chain); i++ {
		if s.chain[i].prev == e.Epoch {
			break
		}
	}
	if i == len(s.chain) {
		return nil, Delta{}, false
	}
	at := e.Epoch
	for first := true; i < len(s.chain); i++ {
		c := s.chain[i]
		if c.prev != at {
			return nil, Delta{}, false
		}
		if first {
			d.OldNumVertices = c.oldNumVerts
			first = false
		}
		d.Ops = append(d.Ops, c.ops...)
		for src, row := range c.oldAdj {
			// First occurrence wins: the pre-image at the entry's epoch is
			// the earliest commit's pre-image for that source. A source
			// first touched by a later commit kept its FromEpoch adjacency
			// until then, so that commit's pre-image is still the FromEpoch
			// view.
			if _, ok := d.OldAdj[src]; !ok {
				d.OldAdj[src] = row
			}
		}
		at = c.epoch
	}
	if at != s.epoch {
		return nil, Delta{}, false
	}
	return e, d, true
}

// Invalidate drops every retained entry and the commit chain.
func (s *Store) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain = nil
	s.entries = make(map[string]*Entry)
}

// Len reports how many entries are retained.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// AddHit records a served incremental run and the page-scans it saved
// relative to from-scratch cost.
func (s *Store) AddHit(savedPages int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits++
	if savedPages > 0 {
		s.saved += uint64(savedPages)
	}
}

// AddFallback records an incremental request that fell back to a full run.
func (s *Store) AddFallback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fallbacks++
}

// Counters returns (hits, fallbacks, saved page-scans).
func (s *Store) Counters() (hits, fallbacks, saved uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.fallbacks, s.saved
}
