package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
)

// The group pins: whole multi-BFS rosters — virtual makespan, sharing
// counters and every job's bytes and accounting. The jobs' digests, levels,
// edges and updates were recorded from the engine as it was when each job
// ran its own page kernel over every page (PR 22), so a change to how a wave
// computes has to reproduce them exactly. They live in their own file:
// golden.json counts its entries against kernelCases.

const goldenGroupsPath = "testdata/golden_groups.json"

// memberPin is one job's outcome: its lane's bytes and counters.
type memberPin struct {
	Digest         string `json:"digest"`
	Levels         int32  `json:"levels"`
	EdgesTraversed int64  `json:"edges_traversed"`
	Updates        int64  `json:"updates"`
}

type groupPin struct {
	Elapsed    sim.Time    `json:"elapsed"`
	PageCopies int64       `json:"page_copies"`
	Servings   int64       `json:"servings"`
	Members    []memberPin `json:"members"`
}

// groupCase is one pinned roster: its machine and its BFS jobs' sources.
type groupCase struct {
	name       string
	opts       Options
	gpus, ssds int
	sources    []uint64
}

func groupCases(sp *slottedpage.Graph) []groupCase {
	nV := sp.NumVertices()
	// A device cache of 16 of the graph's 42 pages, so every wave streams.
	partCache := Options{CacheBytes: 16 * int64(sp.Config().PageSize)}
	out := []groupCase{{name: "bfs8-1gpu-ssd", opts: partCache, gpus: 1, ssds: 1, sources: bfsSources(8, nV)}}
	for _, st := range []Strategy{StrategyP, StrategyS} {
		out = append(out, groupCase{name: "bfs20-2gpu-" + st.String(), opts: Options{Strategy: st}, gpus: 2, sources: bfsSources(20, nV)})
	}
	return out
}

func runGroupCase(t *testing.T, sp *slottedpage.Graph, gc groupCase) groupPin {
	t.Helper()
	var jobs []SharedJob
	for _, s := range gc.sources {
		jobs = append(jobs, SharedJob{Kernel: kernels.NewBFS(sp), Source: s})
	}
	outs, stats := mustRunShared(t, newEngine(t, sp, gc.opts, gc.gpus, gc.ssds), jobs)
	pin := groupPin{Elapsed: stats.Elapsed, PageCopies: stats.PageCopies, Servings: stats.Servings}
	bfsCase := kernelCases()[0]
	for i, o := range outs {
		if o.Err != nil || o.Declined {
			t.Fatalf("%s: job %d: err %v, declined %v", gc.name, i, o.Err, o.Declined)
		}
		sum := sha256.Sum256(bfsCase.enc(jobs[i].Kernel, o.State))
		pin.Members = append(pin.Members, memberPin{
			Digest:         hex.EncodeToString(sum[:]),
			Levels:         o.Levels,
			EdgesTraversed: o.EdgesTraversed,
			Updates:        o.Updates,
		})
	}
	return pin
}

func TestGoldenGroups(t *testing.T) {
	sp := buildPages(t, rmatGraph(t))
	if *updateGolden {
		pins := map[string]groupPin{}
		for _, gc := range groupCases(sp) {
			pins[gc.name] = runGroupCase(t, sp, gc)
		}
		raw, err := json.MarshalIndent(pins, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenGroupsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d groups", goldenGroupsPath, len(pins))
		return
	}
	raw, err := os.ReadFile(goldenGroupsPath)
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]groupPin
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatalf("parsing %s: %v", goldenGroupsPath, err)
	}
	cases := groupCases(sp)
	if len(pins) != len(cases) {
		t.Errorf("%s has %d groups, groupCases has %d", goldenGroupsPath, len(pins), len(cases))
	}
	for _, gc := range cases {
		t.Run(gc.name, func(t *testing.T) {
			got, want := runGroupCase(t, sp, gc), pins[gc.name]
			if got.Elapsed != want.Elapsed || got.PageCopies != want.PageCopies || got.Servings != want.Servings {
				t.Errorf("group: elapsed %d, %d page copies, %d servings; pinned %d, %d, %d",
					got.Elapsed, got.PageCopies, got.Servings, want.Elapsed, want.PageCopies, want.Servings)
			}
			if len(got.Members) != len(want.Members) {
				t.Fatalf("%d members, pinned %d", len(got.Members), len(want.Members))
			}
			for i := range got.Members {
				if !reflect.DeepEqual(got.Members[i], want.Members[i]) {
					t.Errorf("member %d:\n  got    %+v\n  pinned %+v", i, got.Members[i], want.Members[i])
				}
			}
		})
	}
}
