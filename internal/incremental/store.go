// Package incremental re-executes BFS and CC from a prior run's output and
// the ingest delta since, instead of from scratch. The contract is
// exactness, not approximation: every incremental run must produce output
// byte-identical to a from-scratch recompute on the new snapshot, clean or
// faulted. Where that cannot be guaranteed (tight deletes under BFS, any
// delete under CC) the planner refuses and the caller falls back to a full
// run.
//
// Only plans that beat a full run on the clock a caller waits on live here:
// BFS and CC delta-expansion cost 0.25-0.45 of a full run's wall; PageRank
// trajectory patching cost 3.5x one at every random batch and was deleted
// (EXPERIMENTS.md, incremental).
//
// The machinery has two parts:
//
//   - Store: the chain of ingest commits needed to replay a prior run's
//     epoch forward to a later one. The prior outputs themselves are the
//     caller's (the service keeps them in its job table).
//   - Planners (PlanBFS, PlanCC): decide safe vs fallback for a prior output
//     and the ops since, and build a FrontierKernel seeded from them.
package incremental

import (
	"sync"

	"repro/internal/slottedpage"
)

// EdgeOp aliases the slotted-page ingest op: one edge insert or delete.
type EdgeOp = slottedpage.EdgeOp

// commit is one applied ingest batch and the epoch edge it spans.
type commit struct {
	prev, epoch uint64
	ops         []EdgeOp
}

// Store holds the commit chain of one graph. A Store is bound to one
// uninterrupted epoch lineage: the service builds a fresh Store on every
// graph (re)load, so recovered-from-crash graphs can never replay pre-crash
// commits even when the recovered epoch counter happens to collide.
type Store struct {
	mu    sync.Mutex
	epoch uint64
	chain []commit // ascending by epoch, contiguous
}

// MaxChain bounds how many ingest commits the store retains; a prior run
// older than the chain can no longer be replayed forward.
const MaxChain = 64

// NewStore builds an empty store anchored at the graph's current epoch.
func NewStore(epoch uint64) *Store {
	return &Store{epoch: epoch}
}

// Commit records one applied ingest batch. If prev does not extend the
// store's lineage (a commit was missed), the chain is dropped — never
// replay across a gap.
func (s *Store) Commit(prev, epoch uint64, ops []EdgeOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev != s.epoch {
		s.chain = nil
	}
	s.chain = append(s.chain, commit{prev: prev, epoch: epoch, ops: append([]EdgeOp(nil), ops...)})
	if len(s.chain) > MaxChain {
		s.chain = s.chain[len(s.chain)-MaxChain:]
	}
	s.epoch = epoch
}

// Delta returns every op of every commit from epoch from to epoch at, in
// commit order, or false if the chain cannot replay from there. at is the
// snapshot the caller plans against: a store that commits ahead of a caller
// still admitted at an older snapshot hands it no op past that snapshot.
// from == at returns no ops — a valid, trivially convergent plan.
func (s *Store) Delta(from, at uint64) ([]EdgeOp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ops []EdgeOp
	epoch := from
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
		ops = append(ops, c.ops...)
		epoch = c.epoch
	}
	return ops, epoch == at
}
