package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// The group pins: whole wave groups — virtual makespan, sharing counters and
// every member's bytes and accounting — recorded from the engine as it was
// when each member ran its own page kernel over every page (PR 22), so a
// change to how a wave computes (page-major order, a kernel shared between
// members) has to reproduce them exactly. They live in their own file:
// golden.json counts its entries against kernelCases.

const goldenGroupsPath = "testdata/golden_groups.json"

// memberPin is one member's outcome. Err is set instead of the rest for a
// member that aborted; Waves is how many supersteps it finished first.
type memberPin struct {
	Err            string  `json:"err,omitempty"`
	Waves          int     `json:"waves,omitempty"`
	Digest         string  `json:"digest,omitempty"`
	Levels         int32   `json:"levels,omitempty"`
	EdgesTraversed int64   `json:"edges_traversed,omitempty"`
	Updates        int64   `json:"updates,omitempty"`
	KernelTime     int64   `json:"kernel_time,omitempty"`
	LevelPages     []int64 `json:"level_pages,omitempty"`
	LevelBytes     []int64 `json:"level_bytes,omitempty"`
}

type groupPin struct {
	Elapsed    sim.Time    `json:"elapsed"`
	PageCopies int64       `json:"page_copies"`
	Servings   int64       `json:"servings"`
	Members    []memberPin `json:"members"`
}

// groupCase is one pinned group: its machine and its jobs (kc[i] encodes
// job i's state).
type groupCase struct {
	name       string
	opts       Options
	gpus, ssds int
	jobs       []SharedJob
	kc         []kernelCase
	// pulls asserts every member planned at least one pull level.
	pulls bool
}

func groupCases(sp *slottedpage.Graph) []groupCase {
	cases := kernelCases()
	bfsCase, ssspCase, prCase, dirCase := cases[0], cases[1], cases[2], cases[11]
	bfsJobs := func(sources []uint64) (jobs []SharedJob, kc []kernelCase) {
		for _, s := range sources {
			jobs = append(jobs, SharedJob{Kernel: kernels.NewBFS(sp), Source: s})
			kc = append(kc, bfsCase)
		}
		return jobs, kc
	}
	nV := sp.NumVertices()
	var out []groupCase

	jobs, kc := bfsJobs(bfsSources(8, nV))
	// A device cache of 16 of the graph's 42 pages, so every wave streams.
	partCache := Options{CacheBytes: 16 * int64(sp.Config().PageSize)}
	out = append(out, groupCase{name: "bfs8-1gpu-ssd", opts: partCache, gpus: 1, ssds: 1, jobs: jobs, kc: kc})

	for _, st := range []Strategy{StrategyP, StrategyS} {
		jobs, kc = bfsJobs(bfsSources(20, nV))
		out = append(out, groupCase{name: "bfs20-2gpu-" + st.String(), opts: Options{Strategy: st}, gpus: 2, jobs: jobs, kc: kc})
	}

	jobs, kc = bfsJobs([]uint64{0, 700})
	for _, c := range []kernelCase{prCase, ssspCase, dirCase} {
		jobs = append(jobs, SharedJob{Kernel: c.make(sp), Source: 3})
		kc = append(kc, c)
	}
	out = append(out, groupCase{name: "mixed-bfs2-pr-sssp-dirbfs", gpus: 1, jobs: jobs, kc: kc})

	// Four direction-optimizing members from sources whose frontiers all
	// cross the pull threshold, so they read one graph's reverse index.
	jobs, kc = nil, nil
	for _, s := range []uint64{0, 3, 700, 1300} {
		jobs = append(jobs, SharedJob{Kernel: dirCase.make(sp), Source: s})
		kc = append(kc, dirCase)
	}
	out = append(out, groupCase{name: "dirbfs4-1gpu", opts: partCache, gpus: 1, jobs: jobs, kc: kc, pulls: true})

	// The 8-BFS group again, with its first member — the payer of every copy
	// it demands — under transfer errors heavy enough to exhaust its retry
	// budget mid-wave (the recorded Waves says how many supersteps it finished
	// first): the other seven take over its copies and finish.
	jobs, kc = bfsJobs(bfsSources(8, nV))
	jobs[0].Faults = &fault.Plan{Seed: 7, TransferErrorRate: 0.5}
	out = append(out, groupCase{name: "bfs8-1gpu-ssd-member0-aborts", opts: partCache, gpus: 1, ssds: 1, jobs: jobs, kc: kc})
	return out
}

func runGroupCase(t *testing.T, sp *slottedpage.Graph, gc groupCase) groupPin {
	t.Helper()
	recs := make([]*trace.Recorder, len(gc.jobs))
	for i := range gc.jobs {
		recs[i] = trace.NewWithID(gc.name)
		gc.jobs[i].Trace = recs[i]
	}
	outs, stats := mustRunShared(t, newEngine(t, sp, gc.opts, gc.gpus, gc.ssds), gc.jobs)
	if len(outs) != len(gc.jobs) {
		t.Fatalf("%s: %d outcomes for %d jobs", gc.name, len(outs), len(gc.jobs))
	}
	pin := groupPin{Elapsed: stats.Elapsed, PageCopies: stats.PageCopies, Servings: stats.Servings}
	for i, o := range outs {
		if o.Declined {
			t.Fatalf("%s: member %d declined", gc.name, i)
		}
		if o.Err != nil {
			waves := 0
			for _, s := range recs[i].Spans() {
				if s.Kind == trace.Superstep {
					waves++
				}
			}
			pin.Members = append(pin.Members, memberPin{Err: o.Err.Error(), Waves: waves})
			continue
		}
		if gc.pulls && !slices.Contains(o.LevelDirs, kernels.DirPull.String()) {
			t.Fatalf("%s: member %d never pulled: %v", gc.name, i, o.LevelDirs)
		}
		sum := sha256.Sum256(gc.kc[i].enc(gc.jobs[i].Kernel, o.State))
		pin.Members = append(pin.Members, memberPin{
			Digest:         hex.EncodeToString(sum[:]),
			Levels:         o.Levels,
			EdgesTraversed: o.EdgesTraversed,
			Updates:        o.Updates,
			KernelTime:     int64(o.KernelTime),
			LevelPages:     o.LevelPages,
			LevelBytes:     o.LevelBytes,
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
