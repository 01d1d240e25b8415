package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	gts "repro"
	"repro/internal/csr"
	"repro/internal/graphgen"
)

// batchEdges is the size of every seeded edge batch: the perturbation the
// library workloads fold into the base graph, each pre-built WAL batch, and
// each live ingest.
const batchEdges = 64

// parseSpec splits "RMAT27@11" into its registry dataset and shrink.
func parseSpec(spec string) (graphgen.Dataset, int, error) {
	name, shrinkStr, ok := strings.Cut(spec, "@")
	shrink, err := strconv.Atoi(shrinkStr)
	if !ok || err != nil || shrink < 0 {
		return graphgen.Dataset{}, 0, fmt.Errorf("graph spec %q: want dataset@shrink", spec)
	}
	d, found := graphgen.ByName(name)
	if !found {
		return graphgen.Dataset{}, 0, fmt.Errorf("graph spec %q: unknown dataset", spec)
	}
	return d, shrink, nil
}

// seededBatch draws batch number index of the run's edge stream: batchEdges
// insertions with both endpoints uniform over the n vertices. The stream is
// a function of (seed, index) alone, so every pass and every process of a
// run sees the same batches.
func seededBatch(seed int64, index int, n uint64) []gts.EdgeOp {
	r := rand.New(rand.NewSource(seed*7919 + int64(index)))
	ops := make([]gts.EdgeOp, batchEdges)
	for i := range ops {
		ops[i] = gts.EdgeOp{Src: uint64(r.Int63n(int64(n))), Dst: uint64(r.Int63n(int64(n)))}
	}
	return ops
}

// withBatches returns base plus the edges of the given batches, appended in
// order — the graph the mutation path reaches by applying the same batches.
func withBatches(base *csr.Graph, batches ...[]gts.EdgeOp) (*csr.Graph, error) {
	edges := base.Edges()
	for _, b := range batches {
		for _, op := range b {
			edges = append(edges, csr.Edge{Src: uint32(op.Src), Dst: uint32(op.Dst)})
		}
	}
	return csr.FromEdges(int(base.NumVertices()), edges)
}
