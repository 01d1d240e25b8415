// Package incremental retains per-graph algorithm state across ingest
// epochs and re-executes BFS and CC from the delta instead of from scratch.
// The contract is exactness, not approximation: every incremental run must
// produce output byte-identical to a from-scratch recompute on the new
// snapshot, clean or faulted. Where that cannot be guaranteed (tight deletes
// under BFS, any delete under CC) the planner refuses and the caller falls
// back to a full run.
//
// Only plans that beat a full run on the clock a caller waits on live here:
// BFS and CC delta-expansion cost 0.25-0.45 of a full run's wall; PageRank
// trajectory patching cost 3.5x one at every random batch and was deleted
// (EXPERIMENTS.md, incremental).
//
// The machinery has three parts:
//
//   - Store: a bounded set of retained entries from completed runs, keyed
//     by (algo, params) and stamped with the epoch they were computed at,
//     plus the chain of ingest commits needed to replay any retained epoch
//     forward to a later one.
//   - Delta: the flattened difference between a retained entry's epoch and
//     the snapshot a caller plans against, handed to a planner.
//   - Planners (PlanBFS, PlanCC): decide safe vs fallback and build a
//     FrontierKernel seeded from the delta.
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
)

func (k Kind) String() string {
	switch k {
	case KindBFS:
		return "bfs"
	case KindCC:
		return "cc"
	}
	return "unknown"
}

// Entry is the retained state of one completed run: the final attribute
// arrays plus the convergence metadata a later incremental run needs.
// Entries are immutable once stored; slices they hold must never be
// written again.
type Entry struct {
	Kind  Kind
	Epoch uint64 // snapshot epoch the run computed against

	// BFS: final levels (-1 unreached). The source is in the store key.
	Levels []int16

	// CC: final component labels.
	Labels []uint32

	// FullPages is the page-scan cost of a from-scratch run of this
	// (algo, params) — carried forward through incremental captures so
	// saved-supersteps accounting always compares against full cost.
	FullPages int64

	seq uint64 // capture order within the store, for eviction
}

// Delta is the flattened edge difference between a retained entry's epoch
// and a later snapshot's: every op of every intervening commit, in commit
// order.
type Delta struct {
	FromEpoch uint64
	ToEpoch   uint64
	Ops       []EdgeOp
}

// commit is one applied ingest batch and the epoch edge it spans.
type commit struct {
	prev, epoch uint64
	ops         []EdgeOp
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
	entries  map[string]*Entry
	captures uint64 // entries ever captured; the next entry's seq
}

// DefaultMaxChain bounds how many ingest commits the store retains;
// entries older than the chain can no longer be replayed forward and are
// dropped.
const DefaultMaxChain = 64

// MaxEntries bounds how many (algo, params) keys the store retains. Every
// BFS or CC run on an incremental graph captures one, |V| x 2-4 bytes each,
// whether or not its request asked for incremental service, so without a
// bound a BFS from each source retains |V| x |V| x 2 bytes. At the bound the
// entry captured longest ago makes room.
const MaxEntries = 64

// NewStore builds an empty store anchored at the graph's current epoch.
func NewStore(epoch uint64) *Store {
	return &Store{epoch: epoch, entries: make(map[string]*Entry)}
}

// Epoch returns the current (latest committed) epoch the store tracks.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Commit records one applied ingest batch. If prev does not extend the
// store's lineage (a commit was missed), all retained state is dropped —
// never serve across a gap.
func (s *Store) Commit(prev, epoch uint64, ops []EdgeOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != s.epoch {
		s.chain = nil
		s.entries = make(map[string]*Entry)
	}
	s.chain = append(s.chain, commit{prev: prev, epoch: epoch, ops: append([]EdgeOp(nil), ops...)})
	if len(s.chain) > DefaultMaxChain {
		s.chain = s.chain[len(s.chain)-DefaultMaxChain:]
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
// anyway). A new key beyond MaxEntries evicts the entry captured longest ago.
func (s *Store) Capture(key string, e *Entry) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Epoch != s.epoch {
		return false
	}
	if _, ok := s.entries[key]; !ok && len(s.entries) >= MaxEntries {
		oldest, min := "", s.captures
		for k, held := range s.entries {
			if held.seq < min {
				oldest, min = k, held.seq
			}
		}
		delete(s.entries, oldest)
	}
	e.seq = s.captures
	s.captures++
	s.entries[key] = e
	return true
}

// Lookup returns the retained entry for key and the flattened delta from
// its epoch to epoch at, the snapshot the caller plans against, or the
// reason it cannot. A store that commits ahead of a caller still admitted at
// an older snapshot must hand it no op past that snapshot, and no entry
// computed after it. An entry already at `at` returns an empty delta (zero
// ops) — a valid, trivially convergent plan.
func (s *Store) Lookup(key string, at uint64) (*Entry, Delta, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return nil, Delta{}, "no-retained-state"
	}
	if e.Epoch > at {
		return nil, Delta{}, "entry-after-snapshot"
	}
	d := Delta{FromEpoch: e.Epoch, ToEpoch: at}
	// Replay the chain from the entry's epoch: each commit must extend the
	// last, up to exactly `at`.
	epoch := e.Epoch
	for _, c := range s.chain {
		if epoch == at {
			break
		}
		if c.prev < epoch {
			continue
		}
		if c.prev != epoch {
			break
		}
		d.Ops = append(d.Ops, c.ops...)
		epoch = c.epoch
	}
	if epoch != at {
		return nil, Delta{}, "no-retained-state"
	}
	return e, d, ""
}

// Len reports how many entries are retained.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
