package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/incremental"
	"repro/internal/kernels"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// incGoldenBatch is the fixed commit applied on top of the seeded RMAT
// fixture for the incremental golden digests: inserts among existing
// vertices only, so every planner stays on the delta-expansion path
// (deletes would legitimately push CC into fallback, which has no
// incremental digest to pin).
func incGoldenBatch() []slottedpage.EdgeOp {
	return []slottedpage.EdgeOp{
		{Src: 3, Dst: 1501}, {Src: 1501, Dst: 3},
		{Src: 7, Dst: 900}, {Src: 1200, Dst: 41},
	}
}

// incGoldenSetup captures retained entries from serial clean full runs at
// epoch 0, applies the fixed batch, and returns the post-commit graph
// plus a store whose Lookup yields a one-commit delta for every algo.
func incGoldenSetup(t *testing.T) (*slottedpage.Graph, *incremental.Store) {
	t.Helper()
	sp := buildPages(t, rmatGraph(t))
	st := incremental.NewStore(0)

	bfs := kernels.NewBFS(sp)
	rep := mustRun(t, newEngine(t, sp, Options{}, 1, 0), bfs, 0)
	st.Capture("bfs", &incremental.Entry{
		Kind: incremental.KindBFS, Epoch: 0,
		Levels:    append([]int16(nil), bfs.Levels(rep.State)...),
		FullPages: rep.PagesStreamed,
	})
	cc := kernels.NewCC(sp)
	rep = mustRun(t, newEngine(t, sp, Options{}, 1, 0), cc, 0)
	st.Capture("cc", &incremental.Entry{
		Kind: incremental.KindCC, Epoch: 0,
		Labels:    append([]uint32(nil), cc.Components(rep.State)...),
		FullPages: rep.PagesStreamed,
	})

	mut := slottedpage.NewMutable(sp)
	g2, err := mut.ApplyBatch(incGoldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	st.Commit(0, 1, incGoldenBatch())
	return g2, st
}

// incGoldenKernel plans one algorithm's delta-expansion kernel against the
// post-commit graph. Kernels accumulate run state, so a fresh plan is
// built for every execution.
func incGoldenKernel(t *testing.T, g *slottedpage.Graph, st *incremental.Store, algo string) (kernels.Kernel, func(kernels.State) []byte, int) {
	t.Helper()
	e, d, ok := st.Lookup(algo)
	if !ok {
		t.Fatalf("%s: no retained entry", algo)
	}
	switch algo {
	case "bfs":
		k, reason := incremental.PlanBFS(g, e, d)
		if reason != "" {
			t.Fatalf("bfs plan refused: %s", reason)
		}
		return k, func(s kernels.State) []byte { return encodeVec(k.Levels(s)) }, k.Seeds
	case "cc":
		k, reason := incremental.PlanCC(g, e, d)
		if reason != "" {
			t.Fatalf("cc plan refused: %s", reason)
		}
		return k, func(s kernels.State) []byte { return encodeVec(k.Components(s)) }, k.Seeds
	}
	t.Fatalf("unknown algo %q", algo)
	return nil, nil, 0
}

func incGoldenDigest(t *testing.T, g *slottedpage.Graph, st *incremental.Store, algo string, faulted bool) string {
	t.Helper()
	k, enc, _ := incGoldenKernel(t, g, st, algo)
	opts := Options{}
	if faulted {
		opts.Faults = chaosPlan()
	}
	rep := mustRun(t, newEngine(t, g, opts, 1, 0), k, 0)
	sum := sha256.Sum256(enc(rep.State))
	return hex.EncodeToString(sum[:])
}

// TestGoldenIncremental pins the incremental-path result digests beside
// the full-kernel ones in golden.json, under "inc-" keys: each retained
// algorithm re-executed by delta expansion over the fixed batch must
// reproduce its checked-in digest, fault-free and under the chaos plan. By the exactness contract these
// digests equal a from-scratch digest on the post-commit graph — which is
// asserted directly, so a drift in either path is caught even when the
// golden file is being rewritten.
func TestGoldenIncremental(t *testing.T) {
	g, st := incGoldenSetup(t)
	algos := []string{"bfs", "cc"}
	full := map[string]kernelCase{}
	for _, kc := range kernelCases() {
		switch kc.name {
		case "BFS":
			full["bfs"] = kc
		case "CC":
			full["cc"] = kc
		}
	}
	fromScratch := func(algo string) string {
		raw, _ := runDigest(t, g, full[algo], Options{}, 1, 0)
		sum := sha256.Sum256(raw)
		return hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		m := map[string]goldenEntry{}
		if raw, err := os.ReadFile(goldenPath); err == nil {
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("parsing %s: %v", goldenPath, err)
			}
		}
		for _, algo := range algos {
			clean := incGoldenDigest(t, g, st, algo, false)
			if clean != fromScratch(algo) {
				t.Fatalf("%s: incremental digest being pinned differs from from-scratch recompute", algo)
			}
			m["inc-"+algo] = goldenEntry{
				Clean:   clean,
				Faulted: incGoldenDigest(t, g, st, algo, true),
			}
		}
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(m))
		return
	}

	golden := readGolden(t)
	for _, algo := range algos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			want, ok := golden["inc-"+algo]
			if !ok {
				t.Fatalf("golden file has no inc-%s entry — re-pin with -update-golden", algo)
			}
			if want.Clean != fromScratch(algo) {
				t.Errorf("pinned clean digest differs from a from-scratch recompute on the post-commit graph")
			}
			_, _, seeds := incGoldenKernel(t, g, st, algo)
			if seeds == 0 {
				t.Errorf("delta plan has no seeds — the batch did not exercise delta expansion")
			}
			if got := incGoldenDigest(t, g, st, algo, false); got != want.Clean {
				t.Errorf("clean digest = %s, want %s", got, want.Clean)
			}
			if got := incGoldenDigest(t, g, st, algo, true); got != want.Faulted {
				t.Errorf("faulted digest = %s, want %s", got, want.Faulted)
			}
		})
	}
}

const incTraceName = "inc_bfs_clean"

// incTraceExport runs the incremental BFS plan with the service-shaped
// recorder — the incseed marker span first, then the engine timeline on a
// 1-GPU/1-SSD machine — and returns the recorder, its Chrome export and the
// seed count.
func incTraceExport(t *testing.T, g *slottedpage.Graph, st *incremental.Store) (*trace.Recorder, []byte, int) {
	t.Helper()
	k, _, seeds := incGoldenKernel(t, g, st, "bfs")
	rec := trace.NewWithID(incTraceName)
	rec.Add(trace.Span{GPU: -1, Stream: -1, Kind: trace.IncSeed, Page: int64(seeds), Level: -1})
	mustRun(t, newEngine(t, g, Options{Trace: rec}, 1, 1), k, 0)
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return rec, buf.Bytes(), seeds
}

// TestGoldenIncrementalTrace pins a trace fixture for the incremental
// path: an incseed marker followed by the delta-expansion BFS timeline.
// The export must be byte-identical across reruns and must parse back to
// the recorder's spans exactly, the incseed span (and its seed count)
// among them; the other fixtures stay untouched — this case writes only
// its own file.
func TestGoldenIncrementalTrace(t *testing.T) {
	g, st := incGoldenSetup(t)

	if *updateGolden {
		_, chrome, _ := incTraceExport(t, g, st)
		if err := os.WriteFile(traceGoldenPath(incTraceName), chrome, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", traceGoldenPath(incTraceName), len(chrome))
		return
	}

	want, err := os.ReadFile(traceGoldenPath(incTraceName))
	if err != nil {
		t.Fatalf("reading golden (run -update-golden to create): %v", err)
	}
	live, chrome, wantSeeds := incTraceExport(t, g, st)
	if !bytes.Equal(chrome, want) {
		t.Errorf("Chrome export differs from golden (%d vs %d bytes)", len(chrome), len(want))
	}
	var incSeeds int
	for _, s := range parseGoldenTrace(t, want, live).Spans() {
		if s.Kind == trace.IncSeed {
			incSeeds++
			if s.Page != int64(wantSeeds) || s.Page <= 0 {
				t.Errorf("incseed span carries seed count %d, want %d (> 0)", s.Page, wantSeeds)
			}
		}
	}
	if incSeeds != 1 {
		t.Errorf("parsed %d incseed spans, want exactly 1", incSeeds)
	}
}
