package gts_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	gts "repro"
)

// digestBFSPR hashes BFS levels and PageRank ranks — the cheap digest the
// chaos loop compares against the replay oracle every round.
func digestBFSPR(t *testing.T, g *gts.Graph) string {
	t.Helper()
	sys, err := gts.NewSystem(g, gts.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := sys.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sys.PageRank(0.85, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%v|%v", bfs.Levels, pr.Ranks)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestChaosIngestRecovery hammers the ingest path the way the crash matrix
// cannot: a randomized (but seeded) schedule of crash kinds and positions,
// with concurrent queries running against live snapshots through a
// storage-fault-injected engine while batches commit. After every crash the
// graph is reopened and must (a) validate cleanly, (b) have replayed
// exactly the committed prefix, and (c) produce BFS/PageRank results
// byte-identical to a synchronous replay oracle of that prefix. The loop
// then resumes ingest from the recovered state until the full history is
// applied; the final state must match the full-history oracle.
func TestChaosIngestRecovery(t *testing.T) {
	spec := testBaseGraph(t)
	rng := rand.New(rand.NewSource(77))

	// A randomized mutation history: inserts, deletes, vertex-space growth.
	const nBatches = 24
	const maxV = 256
	batches := make([][]gts.EdgeOp, nBatches)
	for i := range batches {
		ops := make([]gts.EdgeOp, 1+rng.Intn(6))
		for j := range ops {
			ops[j] = gts.EdgeOp{
				Del: rng.Intn(4) == 0,
				Src: uint64(rng.Intn(maxV)),
				Dst: uint64(rng.Intn(maxV)),
			}
		}
		batches[i] = ops
	}

	walPath := filepath.Join(t.TempDir(), "chaos.wal")
	applied := 0 // committed batches so far, per the last recovery
	for round := 0; applied < nBatches; round++ {
		if round > 4*nBatches {
			t.Fatalf("no forward progress after %d crash rounds (%d/%d batches)", round, applied, nBatches)
		}
		// Two rounds in three crash at a random position in the remainder,
		// with a random crash kind; the rest run to completion.
		var plan *gts.FaultPlan
		if rng.Intn(3) > 0 {
			k := int64(1 + rng.Intn(nBatches-applied))
			seed := rng.Int63()
			switch rng.Intn(4) {
			case 0:
				plan = &gts.FaultPlan{Seed: seed, WALCrashAppends: []int64{k}}
			case 1:
				plan = &gts.FaultPlan{Seed: seed, WALTornAppends: []int64{k}}
			case 2:
				plan = &gts.FaultPlan{Seed: seed, WALCrashSyncs: []int64{k}}
			default:
				plan = &gts.FaultPlan{Seed: seed, CrashApplies: []int64{k}}
			}
		}
		m, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{Faults: plan})
		if err != nil {
			t.Fatalf("round %d: open: %v", round, err)
		}
		if m.ReplayedBatches() != applied {
			t.Fatalf("round %d: replayed %d, want %d", round, m.ReplayedBatches(), applied)
		}
		// The reopened graph's chain starts empty: nothing survives a
		// recovery, so no stale-epoch prior can be replayed this round.
		if _, ok := m.Delta(0, m.Epoch()); ok && m.Epoch() > 0 {
			t.Fatalf("round %d: the reopened graph's chain replays pre-crash commits", round)
		}
		incSt := incCapture(t, m)

		// Concurrent queries against live snapshots, streaming pages through
		// a storage-fault-injected engine. Snapshots are immutable, so every
		// query must either succeed or die with a hardware fault that
		// exhausted its retry budget — never observe a torn mutation.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			seed := rng.Int63()
			wg.Add(1)
			go func() {
				defer wg.Done()
				qr := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					// The chain reaches every epoch the graph reports,
					// however the read interleaves with a commit.
					if _, ok := m.Delta(incSt.at, m.Epoch()); !ok {
						t.Errorf("round %d: the chain cannot replay the prior to the graph's epoch", round)
						return
					}
					snap := m.Snapshot()
					sys, err := gts.NewSystem(snap, gts.Config{
						Storage: gts.SSDs,
						Faults:  &gts.FaultPlan{Seed: qr.Int63(), StorageErrorRate: 0.02},
					})
					if err != nil {
						t.Errorf("query engine: %v", err)
						return
					}
					if _, err := sys.BFS(0); err != nil && !errors.Is(err, gts.ErrHardwareFault) {
						t.Errorf("concurrent BFS: %v", err)
						return
					}
				}
			}()
		}

		crashed := false
		for i := applied; i < nBatches; i++ {
			if _, err := m.Ingest(batches[i]); err != nil {
				if !errors.Is(err, gts.ErrCrashed) {
					t.Fatalf("round %d batch %d: %v", round, i, err)
				}
				crashed = true
				break
			}
		}
		close(stop)
		wg.Wait()
		if crashed {
			if _, err := m.Ingest(batches[0]); !errors.Is(err, gts.ErrCrashed) {
				t.Fatalf("round %d: dead graph accepted ingest: %v", round, err)
			}
		}
		// Live incremental is safe even after a crash: the chain records only
		// applied batches, so it is always consistent with the published
		// snapshot. (Reusing it after reopening would NOT be — a during-fsync
		// crash can leave a durable batch the chain never saw — which is why
		// the reopened graph's chain starts empty.)
		incCheck(t, fmt.Sprintf("round %d live", round), incSt, m)
		m.Close()

		// Recover and verify against the synchronous-replay oracle.
		r, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
		if err != nil {
			t.Fatalf("round %d: recovery open: %v", round, err)
		}
		committed := r.ReplayedBatches()
		if crashed {
			// A crash before/inside the append loses the batch; one during
			// the fsync or the apply keeps it (it was durable).
			if committed < applied || committed > nBatches {
				t.Fatalf("round %d: recovered %d batches from %d", round, committed, applied)
			}
		} else if committed != nBatches {
			t.Fatalf("round %d: clean run but only %d/%d batches durable", round, committed, nBatches)
		}
		applied = committed
		snap := r.Snapshot()
		if err := snap.Validate(); err != nil {
			t.Fatalf("round %d: recovered graph invalid: %v", round, err)
		}
		graphsEqual(t, fmt.Sprintf("round %d recovered vs oracle", round), snap, oracleGraph(t, spec, batches, applied))
		if digestBFSPR(t, snap) != digestBFSPR(t, oracleGraph(t, spec, batches, applied)) {
			t.Fatalf("round %d: recovered BFS/PageRank diverge from the %d-batch oracle", round, applied)
		}
		r.Close()
	}

	// The surviving WAL replays the whole history: final state must be
	// byte-identical to the full synchronous oracle.
	final, err := gts.OpenMutable(spec, walPath, gts.MutableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	graphsEqual(t, "final vs full oracle", final.Snapshot(), oracleGraph(t, spec, batches, nBatches))
}
