package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kernels"
	"repro/internal/slottedpage"
	"repro/internal/trace"
)

// traceGoldenCase is one pinned trace fixture: an algorithm over the seeded
// RMAT27 proxy graph on a 1-GPU/1-SSD machine (so storage I/O spans appear),
// clean and under the chaos fault plan.
type traceGoldenCase struct {
	name    string
	faulted bool
	// wantDir marks cases whose superstep spans must carry the planned
	// direction attribute (direction-optimizing kernels only; plain-kernel
	// traces must stay byte-identical to their pre-direction fixtures).
	wantDir bool
	make    func(sp *slottedpage.Graph) kernels.Kernel
}

func traceGoldenCases() []traceGoldenCase {
	mkBFS := func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewBFS(sp) }
	mkPR := func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewPageRank(sp, 0.85, 5) }
	mkDir := func(sp *slottedpage.Graph) kernels.Kernel { return kernels.NewDirBFS(sp) }
	return []traceGoldenCase{
		{"bfs_clean", false, false, mkBFS},
		{"bfs_faulted", true, false, mkBFS},
		{"pagerank_clean", false, false, mkPR},
		{"pagerank_faulted", true, false, mkPR},
		{"bfs_diropt_clean", false, true, mkDir},
		{"bfs_diropt_faulted", true, true, mkDir},
	}
}

// traceExport runs one case and returns its recorder and the recorder's
// Chrome trace_event export.
func traceExport(t *testing.T, sp *slottedpage.Graph, tc traceGoldenCase) (*trace.Recorder, []byte) {
	t.Helper()
	rec := trace.NewWithID(tc.name)
	opts := Options{Source: 0, Trace: rec}
	if tc.faulted {
		opts.Faults = chaosPlan()
	}
	mustRun(t, newEngine(t, sp, opts, 1, 1), tc.make(sp))
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return rec, buf.Bytes()
}

func traceGoldenPath(name string) string {
	return filepath.Join("testdata", "trace_"+name+".json")
}

// parseGoldenTrace parses a pinned fixture and requires it to hold exactly
// the live recorder's trace ID and spans, span for span.
func parseGoldenTrace(t *testing.T, fixture []byte, live *trace.Recorder) *trace.Recorder {
	t.Helper()
	rec, err := trace.Parse(fixture)
	if err != nil {
		t.Fatalf("golden export unparseable: %v", err)
	}
	if rec.ID() != live.ID() {
		t.Errorf("parsed ID = %q, want %q", rec.ID(), live.ID())
	}
	got, want := rec.Spans(), live.Spans()
	if len(got) != len(want) {
		t.Fatalf("parsed %d spans, the recorder holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("parsed span %d = %+v, the recorder's is %+v", i, got[i], want[i])
		}
	}
	return rec
}

// TestGoldenTraces pins the exported timelines byte-for-byte: the virtual
// machine is deterministic, so the Chrome JSON export must be identical
// across reruns — clean and mid-fault alike — and must parse back to the
// recorder's spans exactly. A diff means the observable execution schedule
// changed; if intentional, re-pin with
// `go test ./internal/core/ -run GoldenTraces -update-golden`.
func TestGoldenTraces(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)

	if *updateGolden {
		for _, tc := range traceGoldenCases() {
			_, chrome := traceExport(t, sp, tc)
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(traceGoldenPath(tc.name), chrome, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", traceGoldenPath(tc.name), len(chrome))
		}
		return
	}

	for _, tc := range traceGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(traceGoldenPath(tc.name))
			if err != nil {
				t.Fatalf("reading golden (run -update-golden to create): %v", err)
			}
			live, chrome := traceExport(t, sp, tc)
			if !bytes.Equal(chrome, want) {
				t.Errorf("Chrome export differs from golden (%d vs %d bytes)", len(chrome), len(want))
			}
			assertTraceShape(t, tc, parseGoldenTrace(t, want, live))
		})
	}
}

// assertTraceShape checks the hierarchy invariants of a pinned trace: one
// run span, at least one superstep, kernels and copies inside supersteps
// (level >= 0), storage reads present (the machine has an SSD), and fault
// markers exactly when the chaos plan was armed.
func assertTraceShape(t *testing.T, tc traceGoldenCase, rec *trace.Recorder) {
	t.Helper()
	var runs, steps, kernelsN, copies, storage, faults, dirs int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.Run:
			runs++
		case trace.Superstep:
			steps++
			if s.Level < 0 {
				t.Errorf("superstep span with level %d", s.Level)
			}
			if s.Dir != 0 {
				dirs++
			}
		case trace.Kernel:
			kernelsN++
			if s.Level < 0 {
				t.Errorf("kernel span outside any superstep (level %d)", s.Level)
			}
		case trace.CopyPage:
			copies++
		case trace.StorageIO:
			storage++
		case trace.Fault:
			faults++
		}
		if s.End < s.Start {
			t.Errorf("span %v ends before it starts: [%v, %v]", s.Kind, s.Start, s.End)
		}
	}
	if runs != 1 {
		t.Errorf("run spans = %d, want exactly 1", runs)
	}
	if steps == 0 || kernelsN == 0 || copies == 0 {
		t.Errorf("missing hierarchy spans: supersteps=%d kernels=%d copies=%d", steps, kernelsN, copies)
	}
	if storage == 0 {
		t.Errorf("no storage I/O spans on a 1-SSD machine")
	}
	if tc.faulted && faults == 0 {
		t.Errorf("chaos run recorded no fault spans")
	}
	if !tc.faulted && faults != 0 {
		t.Errorf("clean run recorded %d fault spans", faults)
	}
	if tc.wantDir && dirs == 0 {
		t.Errorf("direction-optimizing run recorded no superstep direction attributes")
	}
	if !tc.wantDir && dirs != 0 {
		t.Errorf("plain-kernel run recorded %d superstep direction attributes", dirs)
	}
}

// TestTraceRenderDeterministic pins the human-facing view too: the ASCII
// timeline rendered from a golden trace is itself stable.
func TestTraceRenderDeterministic(t *testing.T) {
	g := rmatGraph(t)
	sp := buildPages(t, g)
	tc := traceGoldenCases()[0]
	var first string
	for i := 0; i < 2; i++ {
		_, chrome := traceExport(t, sp, tc)
		rec, err := trace.Parse(chrome)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.RenderTimeline(&buf, 72); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			if first == "" {
				t.Fatal("empty timeline")
			}
			continue
		}
		if got := buf.String(); got != first {
			t.Errorf("timeline differs between runs:\n%s\nvs\n%s", first, got)
		}
	}
}
