package incremental_test

import (
	"testing"

	gts "repro"
	"repro/internal/incremental"
	"repro/internal/slottedpage"
)

// decodeFuzzOps turns a fuzz byte stream into an edge-op script: three
// bytes per op (flags, src, dst). Bit 0 of the flags selects delete; bit 1
// lets the op address a handful of vertices past the base graph, so the
// corpus reaches the vertex-growth planner paths. Deleting an absent edge
// is a legal no-op, so every decoded script is applyable.
func decodeFuzzOps(data []byte, n uint64) []gts.EdgeOp {
	const maxOps = 48
	var ops []gts.EdgeOp
	for i := 0; i+2 < len(data) && len(ops) < maxOps; i += 3 {
		m := n
		if data[i]&2 != 0 {
			m = n + 4
		}
		ops = append(ops, gts.EdgeOp{
			Del: data[i]&1 != 0,
			Src: uint64(data[i+1]) % m,
			Dst: uint64(data[i+2]) % m,
		})
	}
	return ops
}

// FuzzDeltaExpand feeds adversarial edge batches through the retained-state
// store and the delta-expansion planners, holding every accepted plan to
// the byte-identical-to-full-recompute contract. Delete-heavy inputs drive
// the fallback matrix (any CC delete, tight BFS deletes); the planner must
// either refuse with a reason or match the oracle exactly.
func FuzzDeltaExpand(f *testing.F) {
	base := openBase(f)
	n := base.NumVertices()
	o := computeOracle(f, base, nil)

	f.Add([]byte{})                                   // empty: requery at the same epoch
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6})          // insert-only
	f.Add([]byte{1, 0, 1, 1, 0, 2, 1, 1, 2, 1, 2, 3}) // delete-heavy
	f.Add([]byte{0, 1, 2, 1, 1, 2, 0, 2, 9, 1, 4, 5}) // insert-then-delete churn
	f.Add([]byte{2, 200, 10, 2, 10, 250, 0, 0, 7})    // growth past the base vertex count

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data, n)
		mut := slottedpage.NewMutable(base)
		st := incremental.NewStore(0)
		st.Capture("bfs", &incremental.Entry{Kind: incremental.KindBFS, Epoch: 0,
			Levels: o.levels})
		st.Capture("cc", &incremental.Entry{Kind: incremental.KindCC, Epoch: 0,
			Labels: o.labels})

		epoch := uint64(0)
		for len(ops) > 0 {
			batch := ops
			if len(batch) > 8 {
				batch = batch[:8]
			}
			ops = ops[len(batch):]
			if _, err := mut.ApplyBatch(batch); err != nil {
				t.Fatalf("batch rejected: %v", err)
			}
			st.Commit(epoch, epoch+1, batch)
			epoch++
		}
		g := mut.Snapshot()
		want := computeOracle(t, g, nil)

		if prior, delta, reason := st.Lookup("bfs", epoch); reason == "" {
			if k, reason := incremental.PlanBFS(g, prior, delta); reason == "" {
				res, _ := runKernel(t, g, k, bfsSource, nil)
				if i := cmpLevels(want.levels, k.Levels(res)); i >= 0 {
					t.Fatalf("bfs diverges at vertex %d for ops %v", i, decodeFuzzOps(data, n))
				}
			}
		}
		if prior, delta, reason := st.Lookup("cc", epoch); reason == "" {
			if k, reason := incremental.PlanCC(g, prior, delta); reason == "" {
				res, _ := runKernel(t, g, k, 0, nil)
				if i := cmpLabels(want.labels, k.Components(res)); i >= 0 {
					t.Fatalf("cc diverges at vertex %d for ops %v", i, decodeFuzzOps(data, n))
				}
			}
		}
	})
}
